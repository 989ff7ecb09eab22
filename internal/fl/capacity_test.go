package fl

import (
	"strings"
	"testing"
)

func capTiny(t *testing.T) *Instance {
	t.Helper()
	return tiny(t) // f0 cost 10 (c0@1 c1@2 c2@9), f1 cost 4 (c1@1 c2@2)
}

func TestCapSolutionCost(t *testing.T) {
	inst := capTiny(t)
	s := NewCapSolution(inst)
	s.Copies[0] = 2
	s.Copies[1] = 1
	s.Assign[0], s.Assign[1], s.Assign[2] = 0, 0, 1
	// 2*10 + 1*4 openings + 1 + 2 + 2 connections = 29.
	if got := s.Cost(inst); got != 29 {
		t.Fatalf("Cost = %d, want 29", got)
	}
	load := s.Load(inst)
	if load[0] != 2 || load[1] != 1 {
		t.Fatalf("Load = %v", load)
	}
}

func TestValidateCap(t *testing.T) {
	inst := capTiny(t)
	valid := func() *CapSolution {
		s := NewCapSolution(inst)
		s.Copies[0], s.Copies[1] = 1, 1
		s.Assign[0], s.Assign[1], s.Assign[2] = 0, 1, 1
		return s
	}
	if err := ValidateCap(inst, 2, valid()); err != nil {
		t.Fatalf("valid solution rejected: %v", err)
	}
	tests := []struct {
		name    string
		cap     int
		mutate  func(*CapSolution)
		wantErr string
	}{
		{"bad cap", 0, func(s *CapSolution) {}, "capacity must be"},
		{"unassigned", 2, func(s *CapSolution) { s.Assign[0] = Unassigned }, "unassigned"},
		{"bad facility", 2, func(s *CapSolution) { s.Assign[0] = 9 }, "invalid facility"},
		{"no copy", 2, func(s *CapSolution) { s.Copies[0] = 0 }, "no open copy"},
		{"no edge", 2, func(s *CapSolution) { s.Assign[0] = 1 }, "no edge"},
		{"negative copies", 2, func(s *CapSolution) { s.Copies[0] = -1; s.Assign[0] = 0 }, "negative"},
		{"overloaded", 1, func(s *CapSolution) {}, "capacity 1"},
		{"wrong copies len", 2, func(s *CapSolution) { s.Copies = s.Copies[:1] }, "facilities"},
		{"wrong assign len", 2, func(s *CapSolution) { s.Assign = s.Assign[:1] }, "clients"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := valid()
			tt.mutate(s)
			err := ValidateCap(inst, tt.cap, s)
			if err == nil {
				t.Fatal("want error")
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tt.wantErr)
			}
		})
	}
	if err := ValidateCap(inst, 2, nil); err == nil {
		t.Fatal("nil solution must fail")
	}
}

func TestCopiesNeeded(t *testing.T) {
	tests := []struct{ load, cap, want int }{
		{0, 3, 0}, {-1, 3, 0}, {1, 3, 1}, {3, 3, 1}, {4, 3, 2}, {9, 3, 3}, {10, 3, 4}, {1, 1, 1}, {7, 1, 7},
	}
	for _, tt := range tests {
		if got := CopiesNeeded(tt.load, tt.cap); got != tt.want {
			t.Errorf("CopiesNeeded(%d,%d) = %d, want %d", tt.load, tt.cap, got, tt.want)
		}
	}
}
