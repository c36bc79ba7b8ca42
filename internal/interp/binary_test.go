package interp

import (
	"fmt"
	"math"
	"testing"

	"hsmcc/internal/cc/token"
	"hsmcc/internal/cc/types"
	"hsmcc/internal/sccsim"
)

// kernelProcs spawns two idle contexts of a trivial compiled program and
// returns the first: a Proc with a timer, resumption stacks and a peer
// that a forced yield can elect.
func kernelProcs(t *testing.T, pr *Program) *Proc {
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

// TestBinaryKernelsMatchFold: for every operator and result type, what
// applyKernel returns and charges — whether the lowering-time kernel
// takes the operands or lets them fall through — is what foldFast and
// binCost give through applyBinaryFast: value, type tag, error text and
// cycles, over the integer and floating edge values under every runtime
// tag. A yield forced at the charge leaves the same frames and resumes
// to the same value.
func TestBinaryKernelsMatchFold(t *testing.T) {
	pr, err := Compile("k.c", "int main() { return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	ptr := types.PointerTo(types.IntType)
	ints := []int64{0, 1, -1, math.MinInt32, math.MaxInt32, math.MaxInt32 + 1}
	floats := []float64{0, 1, -1, math.MinInt32, math.MaxInt32 + 1, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	var operands []Value
	for _, tag := range []*types.Type{types.CharType, types.ShortType, types.IntType, types.LongType, types.UIntType, ptr} {
		for _, i := range ints {
			operands = append(operands, Value{T: tag, I: i})
		}
	}
	for _, tag := range []*types.Type{types.FloatType, types.DoubleType} {
		for _, f := range floats {
			operands = append(operands, Value{T: tag, F: f})
		}
	}
	ops := []token.Kind{
		token.Plus, token.Minus, token.Star, token.Slash, token.Percent,
		token.Lt, token.Gt, token.Le, token.Ge, token.EqEq, token.NotEq,
		token.Amp, token.Pipe, token.Caret, token.Shl, token.Shr,
	}
	results := []*types.Type{types.IntType, types.LongType, types.DoubleType, types.UIntType, types.FloatType, types.CharType, ptr, nil}

	kp, rp := kernelProcs(t, pr), kernelProcs(t, pr)
	period := kp.timer.Period
	taken := map[binKernel]int{}
	for _, op := range ops {
		for _, rt := range results {
			kern, cost := pickKernel(op, rt)
			for _, x := range operands {
				for _, y := range operands {
					kp.Clock, kp.lastYield, rp.Clock, rp.lastYield = 0, 0, 0, 0
					got, gerr := kp.applyKernel(kern, cost, op, x, y, rt)
					want, werr := rp.applyBinaryFast(op, x, y, rt)
					if !sameValue(got, want) || errText(gerr) != errText(werr) || kp.Clock != rp.Clock {
						t.Fatalf("%s -> %v of %+v, %+v: kernel %d gives (%+v, %v, %d ps), applyBinaryFast (%+v, %v, %d ps)",
							op, rt, x, y, kern, got, gerr, kp.Clock, want, werr, rp.Clock)
					}
					// Where a kernel took the operands, spell the reference
					// out: foldFast's value under binCost's charge.
					engaged := kern == kernInt && sintTag(x.T) && sintTag(y.T) || kern == kernDouble && x.IsFloat() && y.IsFloat()
					if !engaged {
						continue
					}
					taken[kern]++
					fv, ferr := foldFast(op, x, y, rt)
					cycles := binCost(op, x.IsFloat() || y.IsFloat())
					if ferr != nil || !sameValue(got, fv) || kp.Clock != sccsim.Time(cycles)*period {
						t.Fatalf("%s -> %v of %+v, %+v: kernel gives (%+v, %d ps), foldFast (%+v, %v) at %d cycles",
							op, rt, x, y, got, kp.Clock, fv, ferr, cycles)
					}
				}
			}
		}
	}
	if taken[kernInt] == 0 || taken[kernDouble] == 0 {
		t.Fatalf("kernels engaged %v times: the sweep must reach both", taken)
	}

	// The forced yield: a clock at the skew horizon makes the charge
	// suspend in favour of the idle peer. One operand pair per operator,
	// result type and tag pair; every case gets fresh contexts, since a
	// suspension leaves scheduler state behind.
	tagged := map[*types.Type]Value{}
	for _, v := range operands {
		if v.I == -1 || v.F == -1 {
			tagged[v.T] = v
		}
	}
	for _, op := range ops {
		for _, rt := range []*types.Type{types.IntType, types.DoubleType} {
			kern, cost := pickKernel(op, rt)
			for _, x := range tagged {
				for _, y := range tagged {
					name := fmt.Sprintf("%s -> %v of %v, %v", op, rt, x.T, y.T)
					suspend := func(apply func(p *Proc, x, y Value) (Value, error)) (v Value, err error, depth int) {
						p := kernelProcs(t, pr)
						p.Clock = yieldHorizonPs
						if _, err := apply(p, x, y); err != errYield {
							t.Fatalf("%s: charge at the horizon returned %v, want a yield", name, err)
						}
						depth = len(p.kstack)
						p.coResuming = true
						v, err = apply(p, Value{}, Value{})
						if len(p.kstack) != 0 || p.coResuming {
							t.Fatalf("%s: resume left %d frames, resuming=%v", name, len(p.kstack), p.coResuming)
						}
						return v, err, depth
					}
					got, gerr, gdepth := suspend(func(p *Proc, x, y Value) (Value, error) {
						return p.applyKernel(kern, cost, op, x, y, rt)
					})
					want, werr, wdepth := suspend(func(p *Proc, x, y Value) (Value, error) {
						return p.applyBinaryFast(op, x, y, rt)
					})
					if !sameValue(got, want) || errText(gerr) != errText(werr) || gdepth != wdepth {
						t.Fatalf("%s across a yield: kernel (%+v, %v, %d frames), applyBinaryFast (%+v, %v, %d frames)",
							name, got, gerr, gdepth, want, werr, wdepth)
					}
				}
			}
		}
	}
}

// TestKernelTagRange pins what sintTag leans on: char, short, int and
// long are consecutive kinds with nothing between them.
func TestKernelTagRange(t *testing.T) {
	if types.Short != types.Char+1 || types.Int != types.Short+1 || types.Long != types.Int+1 {
		t.Fatal("sintTag tests Char <= kind <= Long: the four signed kinds must stay consecutive")
	}
	for _, tt := range []*types.Type{nil, types.VoidType, types.UIntType, types.FloatType, types.DoubleType, types.PointerTo(types.IntType), types.OpaqueOf("pthread_t")} {
		if sintTag(tt) {
			t.Errorf("sintTag(%v) = true", tt)
		}
	}
}
