package ring

// QueuePath wraps s in a plain struct that forwards the Scheduler methods —
// and the checkpoint cursor, when s has one — but not the hand-off methods,
// so the event loop drives s through Push and Next exactly as it drives a
// custom scheduler. Tests run a schedule both ways to show the hand-off
// changes nothing observable.
func QueuePath(s Scheduler) Scheduler {
	if ck, ok := s.(checkpointableScheduler); ok {
		return queuePathCheckpointable{ck}
	}
	return queuePath{s}
}

type queuePath struct{ Scheduler }

type queuePathCheckpointable struct{ checkpointableScheduler }
