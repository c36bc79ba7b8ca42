package interp

import (
	"fmt"
	"math"
	"testing"

	"hsmcc/internal/cc/token"
	"hsmcc/internal/cc/types"
	"hsmcc/internal/sccsim"
)

// idleProcs spawns two idle contexts of a trivial compiled program and
// returns the first: a Proc with a timer, resumption stacks and a peer
// that a forced yield can elect.
func idleProcs(t *testing.T, pr *Program) *Proc {
	t.Helper()
	sim := NewSim(sccsim.MustNew(sccsim.DefaultConfig()), pr)
	for core := 0; core < 2; core++ {
		if _, err := sim.Spawn(core, pr.Funcs["main"], nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	p := sim.Procs()[0]
	p.State = Running
	return p
}

func sameValue(a, b Value) bool {
	return a.T == b.T && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestFoldsMatchFoldBinary: every entry of the fused closures' folds
// table gives, over the integer and floating edge values under every tag
// a fused closure can prove, the word of foldBinary's value after the
// result conversion and the same error text, and applyBinary charges
// those operands what binCost charges the fused site. A reversed entry
// folds its operands swapped; a conversion entry is Convert. A yield
// forced at applyBinary's charge leaves one frame and resumes to the
// same outcome.
func TestFoldsMatchFoldBinary(t *testing.T) {
	pr, err := Compile("k.c", "int main() { return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	ints := []int64{0, 1, -1, math.MinInt32, math.MaxInt32, math.MaxInt32 + 1}
	floats := []float64{0, 1, -1, math.MinInt32, math.MaxInt32 + 1, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	var sints, dbls []Value
	for _, tag := range []*types.Type{types.CharType, types.ShortType, types.IntType, types.LongType} {
		for _, i := range ints {
			sints = append(sints, Value{T: tag, I: i})
		}
	}
	for _, f := range floats {
		dbls = append(dbls, Value{T: types.DoubleType, F: f})
	}
	word := func(v Value) uint64 {
		if v.IsFloat() {
			return fw(v.F)
		}
		return uint64(v.I)
	}

	p := idleProcs(t, pr)
	period := p.timer.Period
	entries := 0
	for i, fold := range folds {
		if fold == nil {
			continue
		}
		entries++
		f := fop(i)
		dbl, rev := f&fopDbl != 0, f&fopRev != 0
		op := token.Kind(f &^ (fopDbl | fopRev))
		operands, results := sints, []*types.Type{types.IntType, types.LongType}
		if dbl {
			operands = dbls
			if op < token.Lt || op > token.NotEq {
				results = []*types.Type{types.DoubleType}
			}
		}
		for _, x := range operands {
			for _, y := range operands {
				got, gerr := fold(word(x), word(y))
				if f&^fopDbl == fopConv {
					to := types.DoubleType
					if dbl {
						to = types.IntType
					}
					if want := Convert(x, to); gerr != nil || got != word(want) {
						t.Fatalf("fold %#x of %+v: %#x, %v; Convert gives %+v", i, x, got, gerr, want)
					}
					continue
				}
				a, b := x, y
				if rev {
					a, b = y, x
				}
				for _, rt := range results {
					p.Clock, p.lastYield = 0, 0
					want, werr := p.applyBinary(op, a, b, rt)
					cycles := binCost(op, dbl)
					if errText(gerr) != errText(werr) || werr == nil && got != word(want) || p.Clock != sccsim.Time(cycles)*period {
						t.Fatalf("fold %#x of %+v, %+v -> %v: (%#x, %v) at %d cycles; applyBinary (%+v, %v) in %d ps",
							i, x, y, rt, got, gerr, cycles, want, werr, p.Clock)
					}
				}
			}
		}
	}
	if entries < 30 {
		t.Fatalf("only %d folds entries checked", entries)
	}

	// The forced yield: a clock at the skew horizon makes the charge
	// suspend in favour of the idle peer. One operand pair per operator,
	// result type and runtime tag pair (pointers, unsigned and float
	// included); every case gets fresh contexts, since a suspension
	// leaves scheduler state behind.
	ptr := types.PointerTo(types.IntType)
	var tagged []Value
	for _, tag := range []*types.Type{types.CharType, types.ShortType, types.IntType, types.LongType, types.UIntType, ptr} {
		tagged = append(tagged, Value{T: tag, I: -1})
	}
	tagged = append(tagged, Value{T: types.FloatType, F: -1}, Value{T: types.DoubleType, F: -1})
	ops := []token.Kind{
		token.Plus, token.Minus, token.Star, token.Slash, token.Percent,
		token.Lt, token.Gt, token.Le, token.Ge, token.EqEq, token.NotEq,
		token.Amp, token.Pipe, token.Caret, token.Shl, token.Shr,
	}
	for _, op := range ops {
		for _, rt := range []*types.Type{types.IntType, types.DoubleType} {
			for _, x := range tagged {
				for _, y := range tagged {
					name := fmt.Sprintf("%s -> %v of %v, %v", op, rt, x.T, y.T)
					p := idleProcs(t, pr)
					p.Clock = yieldHorizonPs
					if _, err := p.applyBinary(op, x, y, rt); !isYield(err) {
						t.Fatalf("%s: charge at the horizon returned %v, want a yield", name, err)
					}
					if len(p.kstack) != 1 {
						t.Fatalf("%s: yield left %d frames, want 1", name, len(p.kstack))
					}
					p.coResuming = true
					got, gerr := p.applyBinary(op, Value{}, Value{}, rt)
					want, werr := applyBinaryFold(op, x, y, rt)
					if !sameValue(got, want) || errText(gerr) != errText(werr) {
						t.Fatalf("%s across a yield: (%+v, %v), applyBinaryFold (%+v, %v)", name, got, gerr, want, werr)
					}
					if len(p.kstack) != 0 || p.coResuming {
						t.Fatalf("%s: resume left %d frames, resuming=%v", name, len(p.kstack), p.coResuming)
					}
				}
			}
		}
	}
}

// TestFuseTagRange pins what sintTag, and with it fuse.go's operand
// classification, leans on: char, short, int and long are consecutive
// kinds with nothing between them.
func TestFuseTagRange(t *testing.T) {
	if types.Short != types.Char+1 || types.Int != types.Short+1 || types.Long != types.Int+1 {
		t.Fatal("sintTag tests Char <= kind <= Long: the four signed kinds must stay consecutive")
	}
	for _, tt := range []*types.Type{nil, types.VoidType, types.UIntType, types.FloatType, types.DoubleType, types.PointerTo(types.IntType), types.OpaqueOf("pthread_t")} {
		if sintTag(tt) {
			t.Errorf("sintTag(%v) = true", tt)
		}
	}
}
