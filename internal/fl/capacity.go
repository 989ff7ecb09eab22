package fl

import (
	"errors"
	"fmt"
)

// Soft-capacitated facility location (SCFL): a facility may be opened in
// multiple copies, each copy costs the opening cost again and serves at
// most U clients. SCFL is the standard first extension of UFL — it models
// servers with connection limits, cluster heads with radio slots, or
// warehouses with dock capacity — and reduces to UFL as U -> infinity.

// CapSolution is an SCFL answer: how many copies of each facility are open
// and which facility each client connects to.
type CapSolution struct {
	Copies []int // len M; number of open copies per facility
	Assign []int // len NC; facility index or Unassigned
}

// NewCapSolution returns an empty capacitated solution shaped for inst.
func NewCapSolution(inst *Instance) *CapSolution {
	s := &CapSolution{
		Copies: make([]int, inst.M()),
		Assign: make([]int, inst.NC()),
	}
	for j := range s.Assign {
		s.Assign[j] = Unassigned
	}
	return s
}

// Clone returns a deep copy of s.
func (s *CapSolution) Clone() *CapSolution {
	return &CapSolution{
		Copies: append([]int(nil), s.Copies...),
		Assign: append([]int(nil), s.Assign...),
	}
}

// Cost returns the total cost: copies * opening cost plus connection costs.
func (s *CapSolution) Cost(inst *Instance) int64 {
	var sum int64
	for i, c := range s.Copies {
		sum = AddSat(sum, MulSat(int64(c), inst.FacilityCost(i)))
	}
	for j, i := range s.Assign {
		if i == Unassigned {
			continue
		}
		if c, ok := inst.Cost(i, j); ok {
			sum = AddSat(sum, c)
		}
	}
	return sum
}

// Load returns the number of clients assigned to each facility.
func (s *CapSolution) Load(inst *Instance) []int {
	load := make([]int, inst.M())
	for _, i := range s.Assign {
		if i >= 0 && i < len(load) {
			load[i]++
		}
	}
	return load
}

// ValidateCap checks that s is feasible for inst under per-copy capacity
// cap: every client assigned along a real edge, and every facility's load
// at most cap * copies.
func ValidateCap(inst *Instance, cap int, s *CapSolution) error {
	if s == nil {
		return errors.New("fl: nil capacitated solution")
	}
	if cap < 1 {
		return fmt.Errorf("fl: capacity must be >= 1, got %d", cap)
	}
	if len(s.Copies) != inst.M() {
		return fmt.Errorf("fl: solution has %d facilities, instance has %d", len(s.Copies), inst.M())
	}
	if len(s.Assign) != inst.NC() {
		return fmt.Errorf("fl: solution has %d clients, instance has %d", len(s.Assign), inst.NC())
	}
	for i, c := range s.Copies {
		if c < 0 {
			return fmt.Errorf("fl: facility %d has negative copies %d", i, c)
		}
	}
	load := make([]int, inst.M())
	for j, i := range s.Assign {
		switch {
		case i == Unassigned:
			return fmt.Errorf("fl: client %d is unassigned", j)
		case i < 0 || i >= inst.M():
			return fmt.Errorf("fl: client %d assigned to invalid facility %d", j, i)
		case s.Copies[i] < 1:
			return fmt.Errorf("fl: client %d assigned to facility %d with no open copy", j, i)
		}
		if _, ok := inst.Cost(i, j); !ok {
			return fmt.Errorf("fl: client %d assigned to facility %d with no edge", j, i)
		}
		load[i]++
	}
	for i, c := range s.Copies {
		if load[i] > cap*c {
			return fmt.Errorf("fl: facility %d serves %d clients with %d copies of capacity %d", i, load[i], c, cap)
		}
	}
	return nil
}

// CopiesNeeded returns ceil(load/cap) for load >= 0, cap >= 1.
func CopiesNeeded(load, cap int) int {
	if load <= 0 {
		return 0
	}
	return (load + cap - 1) / cap
}
