package core

import (
	"math/rand"
	"slices"
	"testing"

	"dfl/internal/fl"
)

// starCostPalette maps a row byte's low nibble to a connection cost. Small
// values repeat so prefixes tie with the best ratio and each other; the
// top entries sit at fl.MaxCost, and 1<<62, beyond what an instance
// accepts, makes short prefixes saturate AddSat so the stop's saturation
// guard is exercised (recomputeBestStar reads only the facility's row).
var starCostPalette = [16]int64{0, 0, 1, 1, 2, 2, 3, 4, 5, 7, 8, 16, 1 << 20, fl.MaxCost - 1, fl.MaxCost, 1 << 62}

// starFacilityPalette maps a selector to the facility's opening cost.
var starFacilityPalette = [8]int64{0, 1, 2, 3, 5, 10, 1 << 30, fl.MaxCost}

// starFacility builds one facility over a hand-made row: each byte of row
// is one client, its low nibble picks the cost from starCostPalette and
// bits 4–5 both set make it inactive. Costs are sorted into the row's
// ascending order. softCap%5 == 0 is the uncapacitated mode, where open
// decides the opening charge; otherwise the capacity is softCap%5 with
// load%16 clients connected and spare%2 copies beyond the ones they need.
func starFacility(t testing.TB, row []byte, fsel uint8, open bool, softCap, load, spare uint8) *facilityNode {
	t.Helper()
	if len(row) > 64 {
		row = row[:64]
	}
	inst, err := fl.New("star", []int64{starFacilityPalette[fsel%8]}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(row)
	f := &facilityNode{
		inst:      inst,
		cfg:       Config{K: 16, Slack: 1, SoftCapacity: int(softCap % 5)},
		d:         Derived{Chi: 2, Phases: 6, ItersPerPhase: 1, Base: 1, ProtoRounds: 24},
		edges:     make([]fl.Edge, n),
		edgeNode:  make([]int32, n),
		active:    make([]bool, n),
		starPos:   make([]int32, 0, n),
		starDirty: true,
	}
	for pos, b := range row {
		f.edges[pos] = fl.Edge{To: pos, Cost: starCostPalette[b&15]}
		f.edgeNode[pos] = int32(pos + 1)
		f.active[pos] = b&0x30 != 0x30
	}
	slices.SortStableFunc(f.edges, func(a, b fl.Edge) int {
		switch {
		case a.Cost < b.Cost:
			return -1
		case a.Cost > b.Cost:
			return 1
		}
		return 0
	})
	if c := f.cfg.SoftCapacity; c > 0 {
		f.load = int(load % 16)
		f.copies = fl.CopiesNeeded(f.load, c) + int(spare%2)
		f.open = f.copies > 0
	} else if open {
		f.open, f.copies = true, 1
	}
	return f
}

// fullScanBestStar is the reference: the best-star scan without the stop
// rule, reading every position of the row.
func fullScanBestStar(f *facilityNode) (bestLen int, bestNum, bestDen int64, bestClass int, star []int32) {
	bestClass = -1
	var sum, t int64
	for pos := range f.edgeNode {
		if !f.active[pos] {
			continue
		}
		star = append(star, int32(pos))
		sum = fl.AddSat(sum, f.edges[pos].Cost)
		t++
		total := fl.AddSat(sum, f.openingCharge(int(t)))
		if bestLen == 0 || fl.RatioLess(total, t, bestNum, bestDen) {
			bestNum, bestDen, bestLen = total, t, len(star)
		}
	}
	if bestLen == 0 {
		return 0, 0, 0, -1, nil
	}
	for q := 0; q < f.d.Phases; q++ {
		if fl.RatioLessEq(bestNum, bestDen, f.d.Threshold(q), 1) {
			bestClass = q
			break
		}
	}
	return bestLen, bestNum, bestDen, bestClass, star[:bestLen]
}

func checkBestStarStop(t *testing.T, row []byte, fsel uint8, open bool, softCap, load, spare uint8) {
	t.Helper()
	f := starFacility(t, row, fsel, open, softCap, load, spare)
	wantLen, wantNum, wantDen, wantClass, wantStar := fullScanBestStar(f)
	f.recomputeBestStar()
	got := f.starPos[:f.bestLen]
	if f.bestLen != wantLen || f.bestNum != wantNum || f.bestDen != wantDen ||
		f.bestClass != wantClass || !slices.Equal(got, wantStar) {
		t.Fatalf("row %v (facility %d, open %v, cap %d, load %d, copies %d): stop scan gives len %d ratio %d/%d class %d star %v, full scan len %d ratio %d/%d class %d star %v",
			row, starFacilityPalette[fsel%8], f.open, f.cfg.SoftCapacity, f.load, f.copies,
			f.bestLen, f.bestNum, f.bestDen, f.bestClass, got,
			wantLen, wantNum, wantDen, wantClass, wantStar)
	}
}

// FuzzBestStarStop checks that recomputeBestStar's early stop picks the
// same star, ratio and class as a scan of the whole row.
func FuzzBestStarStop(f *testing.F) {
	f.Add([]byte{4, 4, 4, 4}, uint8(0), true, uint8(0), uint8(0), uint8(0))                 // costs tie the ratio 2
	f.Add([]byte{0, 1, 0, 2, 4}, uint8(0), false, uint8(0), uint8(0), uint8(0))             // zero costs, free facility
	f.Add([]byte{2, 2, 4, 4, 6, 8}, uint8(3), false, uint8(0), uint8(0), uint8(0))          // 5/2 then cost 2: integer floor stops early
	f.Add([]byte{2, 4, 4, 6, 7}, uint8(5), false, uint8(0), uint8(0), uint8(0))             // the best ratio is well above the cost average
	f.Add([]byte{2, 0x32, 4, 0x34, 0x36, 8}, uint8(2), false, uint8(0), uint8(0), uint8(0)) // inactive gaps
	f.Add([]byte{0, 0, 2, 2, 4, 4, 6}, uint8(5), false, uint8(2), uint8(1), uint8(0))       // copy boundary, one spare slot
	f.Add([]byte{2, 2, 2, 2, 2, 2}, uint8(4), false, uint8(3), uint8(3), uint8(1))          // full copies plus a spare one
	f.Add([]byte{13, 14, 14, 14}, uint8(7), false, uint8(0), uint8(0), uint8(0))            // costs at fl.MaxCost
	f.Add([]byte{15, 15, 15, 15}, uint8(0), true, uint8(0), uint8(0), uint8(0))             // saturated sums
	f.Add([]byte{}, uint8(0), false, uint8(0), uint8(0), uint8(0))                          // empty row
	f.Fuzz(func(t *testing.T, row []byte, fsel uint8, open bool, softCap, load, spare uint8) {
		checkBestStarStop(t, row, fsel, open, softCap, load, spare)
	})
}

// TestBestStarStopRandomRows runs the fuzz check over seeded random rows,
// so plain `go test` covers more than the seed corpus.
func TestBestStarStopRandomRows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		row := make([]byte, rng.Intn(24))
		for k := range row {
			row[k] = byte(rng.Intn(256))
		}
		checkBestStarStop(t, row, uint8(rng.Intn(8)), rng.Intn(2) == 0, uint8(rng.Intn(5)), uint8(rng.Intn(16)), uint8(rng.Intn(2)))
	}
}
