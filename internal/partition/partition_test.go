package partition

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"hsmcc/internal/analysis/scope"
	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/types"
)

// mkvar builds a synthetic shared variable of the given size with the
// given access counts.
func mkvar(name string, size, reads, writes int) *scope.VarInfo {
	return &scope.VarInfo{
		Sym:     &ast.Symbol{Name: name, Global: true, Type: types.ArrayOf(types.CharType, size)},
		Name:    name,
		Type:    types.ArrayOf(types.CharType, size),
		Count:   size,
		MemSize: size,
		Reads:   reads,
		Writes:  writes,
	}
}

func placements(r *Result) map[string]Placement {
	out := make(map[string]Placement)
	for _, a := range r.Assignments {
		out[a.Var.Name] = a.Placement
	}
	return out
}

// TestAllFitsOnChip: Algorithm 3's best case (lines 4-12).
func TestAllFitsOnChip(t *testing.T) {
	vars := []*scope.VarInfo{mkvar("a", 100, 1, 1), mkvar("b", 200, 1, 1)}
	r := Partition(vars, 1024, PolicySizeAscending)
	for name, p := range placements(r) {
		if p != OnChip {
			t.Errorf("%s = %v, want on-chip (everything fits)", name, p)
		}
	}
	if r.OnChipBytes != 300 || r.OffChipBytes != 0 {
		t.Errorf("bytes = %d/%d, want 300/0", r.OnChipBytes, r.OffChipBytes)
	}
}

// TestSizeAscendingGreedy: when capacity is short, small variables win
// slots (Algorithm 3 line 14: sort ascending).
func TestSizeAscendingGreedy(t *testing.T) {
	vars := []*scope.VarInfo{
		mkvar("huge", 900, 100, 100),
		mkvar("tiny", 50, 1, 1),
		mkvar("mid", 300, 10, 10),
	}
	r := Partition(vars, 400, PolicySizeAscending)
	got := placements(r)
	if got["tiny"] != OnChip || got["mid"] != OnChip {
		t.Errorf("tiny/mid = %v/%v, want both on-chip", got["tiny"], got["mid"])
	}
	if got["huge"] != OffChip {
		t.Errorf("huge = %v, want off-chip", got["huge"])
	}
	if r.OnChipBytes != 350 {
		t.Errorf("on-chip bytes = %d, want 350", r.OnChipBytes)
	}
}

// TestFrequencyDensityPolicy: the ablation policy prefers hot-per-byte
// data even when it is larger.
func TestFrequencyDensityPolicy(t *testing.T) {
	vars := []*scope.VarInfo{
		mkvar("coldsmall", 100, 1, 0),   // density 0.01
		mkvar("hotbig", 300, 3000, 300), // density 11
	}
	r := Partition(vars, 350, PolicyFrequencyDensity)
	got := placements(r)
	if got["hotbig"] != OnChip {
		t.Errorf("hotbig = %v, want on-chip under frequency policy", got["hotbig"])
	}
	if got["coldsmall"] != OffChip {
		// Only 50 bytes remain after hotbig: coldsmall (100 B) spills.
		t.Errorf("coldsmall = %v, want off-chip (does not fit the remainder)", got["coldsmall"])
	}
	// Size-ascending would have placed coldsmall first and then hotbig
	// would not fit: the two policies genuinely differ here.
	r2 := Partition(vars, 350, PolicySizeAscending)
	if placements(r2)["hotbig"] != OffChip {
		t.Error("size-ascending should sacrifice hotbig")
	}
}

// TestOffChipOnly: the Fig 6.1 configuration.
func TestOffChipOnly(t *testing.T) {
	vars := []*scope.VarInfo{mkvar("a", 10, 1, 1), mkvar("b", 20, 1, 1)}
	r := Partition(vars, 1<<20, PolicyOffChipOnly)
	for name, p := range placements(r) {
		if p != OffChip {
			t.Errorf("%s = %v, want off-chip", name, p)
		}
	}
	if r.OnChipBytes != 0 {
		t.Errorf("on-chip bytes = %d, want 0", r.OnChipBytes)
	}
}

// TestDecide: Stage 4's one entry point over all four policies. The
// off-chip policy ignores the capacity; the profiled policy needs its
// map and applies it in declaration order, a mapped variable that no
// longer fits falling back to off-chip; the static policies ignore the
// map and are Partition field for field.
func TestDecide(t *testing.T) {
	vars := []*scope.VarInfo{mkvar("a", 100, 1, 1), mkvar("b", 200, 9, 9), mkvar("c", 50, 1, 1)}
	all := map[string]bool{"a": true, "b": true, "c": true}
	for _, tc := range []struct {
		name   string
		policy Policy
		onChip map[string]bool
		want   string // the decision; "" for an error
	}{
		{"offchip", PolicyOffChipOnly, all, "capacity 0, on 0, off 350: a off-chip@0 b off-chip@100 c off-chip@300"},
		{"profiled without a map", PolicyProfiled, nil, ""},
		{"profiled past the capacity", PolicyProfiled, all, "capacity 250, on 150, off 200: a on-chip@0 b off-chip@0 c on-chip@100"},
		{"profiled unmapped", PolicyProfiled, map[string]bool{"b": true, "c": true}, "capacity 250, on 250, off 100: a off-chip@0 b on-chip@0 c on-chip@200"},
		{"size", PolicySizeAscending, all, "capacity 250, on 150, off 200: c on-chip@0 a on-chip@50 b off-chip@0"},
		{"freq", PolicyFrequencyDensity, all, "capacity 250, on 250, off 100: b on-chip@0 c on-chip@200 a off-chip@0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := Decide(vars, tc.policy, 250, tc.onChip)
			if tc.want == "" {
				if err == nil {
					t.Errorf("Decide = %s, want an error", decision(r))
				}
				return
			}
			if err != nil || decision(r) != tc.want {
				t.Fatalf("Decide = %s, %v; want %s", decision(r), err, tc.want)
			}
			if static := tc.policy == PolicySizeAscending || tc.policy == PolicyFrequencyDensity; static &&
				!reflect.DeepEqual(r, Partition(vars, 250, tc.policy)) {
				t.Errorf("Decide differs from Partition: %+v", r)
			}
		})
	}
}

// decision renders r's totals and assignments in decision order.
func decision(r *Result) string {
	if r == nil {
		return "<nil>"
	}
	s := fmt.Sprintf("capacity %d, on %d, off %d:", r.Capacity, r.OnChipBytes, r.OffChipBytes)
	for _, a := range r.Assignments {
		s += fmt.Sprintf(" %s %s@%d", a.Var.Name, a.Placement, a.Offset)
	}
	return s
}

// TestOffsetsContiguous: offsets within each region are contiguous and
// non-overlapping.
func TestOffsetsContiguous(t *testing.T) {
	vars := []*scope.VarInfo{
		mkvar("a", 64, 1, 1), mkvar("b", 32, 1, 1), mkvar("c", 128, 1, 1),
	}
	r := Partition(vars, 1024, PolicySizeAscending)
	seen := 0
	for _, a := range r.Assignments {
		if a.Offset != seen {
			t.Errorf("%s offset = %d, want %d", a.Var.Name, a.Offset, seen)
		}
		seen += a.Var.MemSize
	}
}

// TestPlacementLookup covers the ByVar index and the default.
func TestPlacementLookup(t *testing.T) {
	a := mkvar("a", 10, 1, 1)
	other := mkvar("other", 10, 1, 1)
	r := Partition([]*scope.VarInfo{a}, 100, PolicySizeAscending)
	if r.Placement(a) != OnChip {
		t.Error("a should be on-chip")
	}
	if r.Placement(other) != OffChip {
		t.Error("unknown variables default to off-chip")
	}
}

func TestPlacementString(t *testing.T) {
	if OnChip.String() != "on-chip" || OffChip.String() != "off-chip" {
		t.Error("placement strings wrong")
	}
}

func TestDump(t *testing.T) {
	r := Partition([]*scope.VarInfo{mkvar("x", 8, 1, 1)}, 64, PolicySizeAscending)
	if !strings.Contains(r.Dump(), "x") || !strings.Contains(r.Dump(), "on-chip") {
		t.Errorf("Dump = %q", r.Dump())
	}
}

// TestCapacityInvariant: property test — on-chip usage never exceeds
// capacity, every variable is placed exactly once, and byte totals add up.
func TestCapacityInvariant(t *testing.T) {
	f := func(sizes []uint16, capacity uint16, policyPick uint8) bool {
		if len(sizes) > 24 {
			sizes = sizes[:24]
		}
		var vars []*scope.VarInfo
		total := 0
		for i, s := range sizes {
			size := int(s%2048) + 1
			vars = append(vars, mkvar(name(i), size, i, i/2))
			total += size
		}
		policy := []Policy{PolicySizeAscending, PolicyFrequencyDensity, PolicyOffChipOnly}[policyPick%3]
		r := Partition(vars, int(capacity), policy)
		if len(r.Assignments) != len(vars) {
			return false
		}
		if r.OnChipBytes > int(capacity) && total > int(capacity) {
			return false
		}
		return r.OnChipBytes+r.OffChipBytes == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func name(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i/26))
}
