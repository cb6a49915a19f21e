package ring

import (
	"errors"
	"fmt"
)

// Engine executes an algorithm (a slice of per-processor Nodes, index 0 being
// the leader) on a ring and returns the verdict plus exact bit accounting.
type Engine interface {
	// Name identifies the engine in reports.
	Name() string
	// Run executes the nodes under the given configuration. nodes[0] is the
	// leader; nodes[i] is connected forward to nodes[(i+1)%n].
	Run(cfg Config, nodes []Node) (*Result, error)
}

// ErrAlreadyDecided is returned if the leader decides twice.
var ErrAlreadyDecided = errors.New("ring: verdict already decided")

// neighbour returns the processor index reached from `from` (in [0, n)) by
// travelling in direction d on a ring of n processors. It runs on every send,
// so it wraps with a compare instead of an integer division.
func neighbour(from int, d Direction, n int) int {
	if d == Forward {
		if from++; from == n {
			return 0
		}
		return from
	}
	if from == 0 {
		return n - 1
	}
	return from - 1
}

// arrivalDirection is the direction the receiver perceives a message sent in
// direction d: a Forward-travelling message arrives from the receiver's
// Backward side, and vice versa.
func arrivalDirection(d Direction) Direction {
	return d.Opposite()
}

// validateSend checks a send direction against the topology mode.
func validateSend(mode Mode, dir Direction) error {
	switch dir {
	case Forward:
		return nil
	case Backward:
		if mode == Unidirectional {
			return ErrBackwardInUnidirectional
		}
		return nil
	default:
		return fmt.Errorf("ring: invalid send direction %d", dir)
	}
}

// routeSend validates one send direction against the topology mode and
// resolves where the send goes: the receiving processor and the arrival
// direction as the receiver perceives it. It is the only caller of
// validateSend, so every engine — scheduler-backed or sharded — enforces
// identical legality rules. A Forward send is legal on every ring, so it
// skips the validation.
func routeSend(mode Mode, fromProc int, dir Direction, n int) (to int, arrival Direction, err error) {
	if dir != Forward {
		if err := validateSend(mode, dir); err != nil {
			return 0, 0, fmt.Errorf("processor %d: %w", fromProc, err)
		}
	}
	return neighbour(fromProc, dir, n), arrivalDirection(dir), nil
}
