// Package bench contains the paper's benchmarks as parameterised
// Pthread C sources (thesis §5.2, Appendix C, plus the expanded corpus
// of workloads_extra.go) and the experiment harness that reproduces
// every table and figure of the evaluation — sequentially via the Fig6x
// functions, or concurrently via the grid runner (grid.go).
//
// Each workload is generated for a given thread count and problem scale;
// the same source serves as the single-core Pthread baseline and, after
// running through the five-stage translator, as the multiprocess RCCE
// program. Problem sizes are chosen so the relevant mechanism appears
// (e.g. Stream's arrays exceed the 256 KB L2 so the baseline streams from
// DRAM, yet fit the 384 KB MPB so Stage 4 can move them on-chip; LU's
// matrix exceeds the MPB, the case the paper calls out).
package bench

import (
	"fmt"

	"hsmcc/internal/synth"
)

// Workload is one benchmark program generator.
type Workload struct {
	// Key is the short identifier used in reports (pi, primes, ...).
	Key string
	// Name is the display name from the thesis.
	Name string
	// Class groups benchmarks the way §5.2 does.
	Class string
	// Source generates the Pthread program for a thread count and a
	// problem scale factor (1.0 = the harness's full experiment size).
	Source func(threads int, scale float64) string
}

// Thesis returns the six benchmarks of thesis §5.2 in the thesis's
// order — the set the Chapter 6 figures are defined over.
func Thesis() []Workload {
	return []Workload{
		Pi(), Sum35(), Primes(), LU(), Dot(), Stream(),
	}
}

// All returns the full corpus: the six thesis benchmarks plus the
// expanded kernels (workloads_extra.go) the grid harness sweeps.
func All() []Workload {
	return append(Thesis(), Histogram(), KMeans(), MatMul(), ProdCons())
}

// ByKey finds a workload. `synth:`-prefixed keys resolve to the
// synthetic generator (synth.ParseKey decodes the full parameter
// vector from the key), so synthetic cells are first-class anywhere a
// workload key is accepted — grids, profiling, the CLIs.
func ByKey(key string) (Workload, bool) {
	if synth.IsKey(key) {
		p, err := synth.ParseKey(key)
		if err != nil {
			return Workload{}, false
		}
		return SynthWorkload(p), true
	}
	for _, w := range All() {
		if w.Key == key {
			return w, true
		}
	}
	return Workload{}, false
}

func scaled(base int, scale float64, granule int) int {
	n := int(float64(base) * scale)
	if n < granule {
		n = granule
	}
	return n / granule * granule
}

// Pi is the Pi Approximation benchmark (thesis Algorithm 12): numerical
// integration of 4/(1+x^2) over [0,1], block-distributed. Compute-bound
// and perfectly balanced: the workload that approaches the ideal 32x in
// Fig 6.1.
func Pi() Workload {
	return Workload{
		Key:   "pi",
		Name:  "Pi Approximation",
		Class: "approximation/number theory",
		Source: func(threads int, scale float64) string {
			chunk := scaled(163840, scale, threads) / threads
			n := chunk * threads
			return fmt.Sprintf(`
double psum[%[1]d];

void *tf(void *tid) {
    int me = (int)tid;
    double step = 1.0 / %[2]d;
    int lo = me * %[3]d;
    int i;
    double x;
    double s = 0.0;
    for (i = lo; i < lo + %[3]d; i++) {
        x = ((double)i + 0.5) * step;
        s += 4.0 / (1.0 + x * x);
    }
    psum[me] = s;
    pthread_exit(NULL);
}

int main() {
    pthread_t th[%[1]d];
    int t;
    for (t = 0; t < %[1]d; t++) {
        pthread_create(&th[t], NULL, tf, (void *)t);
    }
    for (t = 0; t < %[1]d; t++) {
        pthread_join(th[t], NULL);
    }
    double pi = 0.0;
    double step = 1.0 / %[2]d;
    int k;
    for (k = 0; k < %[1]d; k++) {
        pi += psum[k];
    }
    pi = pi * step;
    printf("pi %%.6f\n", pi);
    return 0;
}
`, threads, n, chunk)
		},
	}
}

// Sum35 is the 3-5-Sum benchmark: sum the increasingly large multiples of
// 3 and 5 below N, block-distributed. Modulo-heavy integer compute with a
// single shared result slot per thread.
func Sum35() Workload {
	return Workload{
		Key:   "sum35",
		Name:  "3-5-Sum",
		Class: "approximation/number theory",
		Source: func(threads int, scale float64) string {
			chunk := scaled(262144, scale, threads) / threads
			n := chunk * threads
			return fmt.Sprintf(`
double psum[%[1]d];

void *tf(void *tid) {
    int me = (int)tid;
    int lo = me * %[3]d;
    int i;
    double s = 0.0;
    for (i = lo; i < lo + %[3]d; i++) {
        if (i %% 3 == 0 || i %% 5 == 0) {
            s += (double)i;
        }
    }
    psum[me] = s;
    pthread_exit(NULL);
}

int main() {
    pthread_t th[%[1]d];
    int t;
    for (t = 0; t < %[1]d; t++) {
        pthread_create(&th[t], NULL, tf, (void *)t);
    }
    for (t = 0; t < %[1]d; t++) {
        pthread_join(th[t], NULL);
    }
    double total = 0.0;
    int k;
    for (k = 0; k < %[1]d; k++) {
        total += psum[k];
    }
    printf("sum35 of %[2]d = %%.0f\n", total);
    return 0;
}
`, threads, n, chunk)
		},
	}
}

// Primes is the Count Primes benchmark (thesis Algorithm 11): trial
// division over a block-distributed candidate range. The cost of testing
// a candidate grows with its value, so block distribution leaves the last
// thread with the most work — the load imbalance that caps Fig 6.1's
// speedup near 16x.
func Primes() Workload {
	return Workload{
		Key:   "primes",
		Name:  "Count Primes",
		Class: "approximation/number theory",
		Source: func(threads int, scale float64) string {
			chunk := scaled(4096, scale, threads) / threads
			n := chunk * threads
			return fmt.Sprintf(`
int count[%[1]d];

void *tf(void *tid) {
    int me = (int)tid;
    int lo = me * %[3]d;
    if (lo < 2) {
        lo = 2;
    }
    int hi = (me + 1) * %[3]d;
    int i;
    int j;
    int prime;
    int total = 0;
    for (i = lo; i < hi; i++) {
        prime = 1;
        for (j = 2; j < i; j++) {
            if (i %% j == 0) {
                prime = 0;
                break;
            }
        }
        total += prime;
    }
    count[me] = total;
    pthread_exit(NULL);
}

int main() {
    pthread_t th[%[1]d];
    int t;
    for (t = 0; t < %[1]d; t++) {
        pthread_create(&th[t], NULL, tf, (void *)t);
    }
    for (t = 0; t < %[1]d; t++) {
        pthread_join(th[t], NULL);
    }
    int total = 0;
    int k;
    for (k = 0; k < %[1]d; k++) {
        total += count[k];
    }
    printf("primes below %[2]d: %%d\n", total);
    return 0;
}
`, threads, n, chunk)
		},
	}
}

// Dot is the Dot Product benchmark: two large double vectors in shared
// memory, block-distributed multiply-accumulate. Memory-bound; with
// off-chip shared data it is one of the paper's controller-contention
// cases ("at least 8 cores in contention per memory controller").
func Dot() Workload {
	return Workload{
		Key:   "dot",
		Name:  "Dot Product",
		Class: "linear algebra",
		Source: func(threads int, scale float64) string {
			chunk := scaled(16384, scale, threads) / threads
			n := chunk * threads
			return fmt.Sprintf(`
double a[%[2]d];
double b[%[2]d];
double psum[%[1]d];

void *tf(void *tid) {
    int me = (int)tid;
    int lo = me * %[3]d;
    int hi = lo + %[3]d;
    int i;
    for (i = lo; i < hi; i++) {
        a[i] = (double)(i %% 64) * 0.5;
        b[i] = (double)(i %% 32) * 2.0;
    }
    double s = 0.0;
    for (i = lo; i < hi; i++) {
        s += a[i] * b[i];
    }
    psum[me] = s;
    pthread_exit(NULL);
}

int main() {
    pthread_t th[%[1]d];
    int t;
    for (t = 0; t < %[1]d; t++) {
        pthread_create(&th[t], NULL, tf, (void *)t);
    }
    for (t = 0; t < %[1]d; t++) {
        pthread_join(th[t], NULL);
    }
    double total = 0.0;
    int k;
    for (k = 0; k < %[1]d; k++) {
        total += psum[k];
    }
    printf("dot %%.1f\n", total);
    return 0;
}
`, threads, n, chunk)
		},
	}
}

// Stream is the synthetic memory benchmark (thesis Algorithms 13-16):
// the Copy, Scale, Add and Triad kernels over three double arrays,
// block-distributed. Array sizing is load-bearing: 3 x 96 KB exceeds the
// 256 KB L2 (the baseline streams from DRAM) but fits the 384 KB MPB
// (Stage 4 can move all three on-chip — the biggest Fig 6.2 winner).
func Stream() Workload {
	return Workload{
		Key:   "stream",
		Name:  "Stream",
		Class: "memory operations",
		Source: func(threads int, scale float64) string {
			chunk := scaled(12288, scale, threads) / threads
			n := chunk * threads
			return fmt.Sprintf(`
double a[%[2]d];
double b[%[2]d];
double c[%[2]d];

void *tf(void *tid) {
    int me = (int)tid;
    int lo = me * %[3]d;
    int hi = lo + %[3]d;
    int j;
    for (j = lo; j < hi; j++) {
        a[j] = 1.0;
        b[j] = 2.0;
        c[j] = 0.0;
    }
    for (j = lo; j < hi; j++) {
        c[j] = a[j];
    }
    for (j = lo; j < hi; j++) {
        b[j] = 3.0 * c[j];
    }
    for (j = lo; j < hi; j++) {
        c[j] = a[j] + b[j];
    }
    for (j = lo; j < hi; j++) {
        a[j] = b[j] + 3.0 * c[j];
    }
    pthread_exit(NULL);
}

int main() {
    pthread_t th[%[1]d];
    int t;
    for (t = 0; t < %[1]d; t++) {
        pthread_create(&th[t], NULL, tf, (void *)t);
    }
    for (t = 0; t < %[1]d; t++) {
        pthread_join(th[t], NULL);
    }
    printf("stream %%.1f %%.1f %%.1f\n", a[0], b[%[2]d / 2], c[%[2]d - 1]);
    return 0;
}
`, threads, n, chunk)
		},
	}
}

// LU is the LU Decomposition benchmark: in-place Gaussian elimination
// without pivoting over an n x n matrix, rows of each elimination step
// distributed across threads, one create/join round per step (which the
// translator turns into one barrier per step). The matrix is sized past
// the 384 KB MPB so Stage 4 must leave it off-chip — the case Fig 6.2
// highlights as gaining almost nothing from the MPB.
func LU() Workload {
	return Workload{
		Key:   "lu",
		Name:  "LU Decomposition",
		Class: "linear algebra",
		Source: func(threads int, scale float64) string {
			n := scaled(224, scale, 4)
			if n < 8 {
				n = 8
			}
			return fmt.Sprintf(`
double A[%[2]d];
int kk;

void *init_rows(void *tid) {
    int me = (int)tid;
    int i;
    int j;
    for (i = me; i < %[3]d; i += %[1]d) {
        for (j = 0; j < %[3]d; j++) {
            if (i == j) {
                A[i * %[3]d + j] = (double)%[3]d;
            } else {
                A[i * %[3]d + j] = 1.0;
            }
        }
    }
    pthread_exit(NULL);
}

void *elim_rows(void *tid) {
    int me = (int)tid;
    int k = kk;
    double pivot = A[k * %[3]d + k];
    int i;
    int j;
    double factor;
    for (i = k + 1 + me; i < %[3]d; i += %[1]d) {
        factor = A[i * %[3]d + k] / pivot;
        A[i * %[3]d + k] = factor;
        for (j = k + 1; j < %[3]d; j++) {
            A[i * %[3]d + j] -= factor * A[k * %[3]d + j];
        }
    }
    pthread_exit(NULL);
}

int main() {
    pthread_t th[%[1]d];
    int t;
    int k;
    for (t = 0; t < %[1]d; t++) {
        pthread_create(&th[t], NULL, init_rows, (void *)t);
    }
    for (t = 0; t < %[1]d; t++) {
        pthread_join(th[t], NULL);
    }
    for (k = 0; k < %[3]d - 1; k++) {
        kk = k;
        for (t = 0; t < %[1]d; t++) {
            pthread_create(&th[t], NULL, elim_rows, (void *)t);
        }
        for (t = 0; t < %[1]d; t++) {
            pthread_join(th[t], NULL);
        }
    }
    double trace = 0.0;
    int d;
    for (d = 0; d < %[3]d; d++) {
        trace += A[d * %[3]d + d];
    }
    printf("lu trace %%.1f\n", trace);
    return 0;
}
`, threads, n*n, n)
		},
	}
}
