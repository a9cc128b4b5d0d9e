// Fixture: the shape of cloudsim's repair. The error of a same-module
// method reached through a receiver field is dropped inside a loop, so
// a node that was never down would pass for restored.
package cloudsim

import "errors"

type inventory struct{ down map[int]bool }

func (inv *inventory) RestoreNode(n int) error {
	if !inv.down[n] {
		return errors.New("node is not down")
	}
	delete(inv.down, n)
	return nil
}

type Simulator struct {
	inv    *inventory
	failed error
}

func (s *Simulator) repair(nodes []int) {
	for _, n := range nodes {
		s.inv.RestoreNode(n) // want `discarded error from cloudsim\.RestoreNode`
	}
}

// repairChecked is the fixed form: the first refusal aborts the run.
func (s *Simulator) repairChecked(nodes []int) {
	for _, n := range nodes {
		if err := s.inv.RestoreNode(n); err != nil {
			s.failed = err
			return
		}
	}
}
