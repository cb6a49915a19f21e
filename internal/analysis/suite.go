package analysis

// All returns the full ringvet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{RingDeterminism, AllocFlow, ShardSafe, SnapshotPure, CtxFlow, ErrSentinel}
}

// knownAnalyzer validates //ringvet:ignore targets.
func knownAnalyzer(name string) bool {
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}
