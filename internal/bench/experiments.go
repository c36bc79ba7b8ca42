package bench

import (
	"fmt"
	"strings"

	"hsmcc/internal/partition"
)

// Fig61Row is one bar of thesis Figure 6.1: the speedup of the converted
// 32-core RCCE program (off-chip shared memory only) over the 32-thread
// Pthread baseline on one core.
type Fig61Row struct {
	Workload  string
	BaselineS float64
	RCCES     float64
	Speedup   float64
	PaperNote string
	ResultsOK bool
}

// paperFig61 records the factors the thesis reports (Chapter 6); Dot and
// LU appear in the figure without stated numbers.
var paperFig61 = map[string]string{
	"pi":     "32x",
	"sum35":  "29x",
	"primes": "16x",
	"stream": "17x",
	"dot":    "low (DRAM contention)",
	"lu":     "low (DRAM contention)",
}

// Fig61 reproduces Figure 6.1: every benchmark, baseline vs off-chip RCCE.
func Fig61(cfg Config) ([]Fig61Row, error) {
	var rows []Fig61Row
	for _, w := range Thesis() {
		both, err := RunBothBackends(w, cfg, partition.PolicyOffChipOnly)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig61Row{
			Workload:  w.Name,
			BaselineS: both.Baseline.Seconds(),
			RCCES:     both.RCCE.Seconds(),
			Speedup:   Speedup(both.Baseline, both.RCCE),
			PaperNote: paperFig61[w.Key],
			ResultsOK: both.Match,
		})
	}
	return rows, nil
}

// Fig62Row is one pair of bars of Figure 6.2: RCCE runtime with shared
// data off-chip vs partitioned onto the MPB by Stage 4.
type Fig62Row struct {
	Workload  string
	OffChipS  float64
	OnChipS   float64
	Gain      float64
	OnChipB   int // bytes the on-chip run placed in the MPB
	ResultsOK bool
}

// Fig62 reproduces Figure 6.2: off-chip vs MPB placement per benchmark.
func Fig62(cfg Config) ([]Fig62Row, error) {
	var rows []Fig62Row
	for _, w := range Thesis() {
		off, err := RunRCCE(w, cfg, partition.PolicyOffChipOnly)
		if err != nil {
			return nil, err
		}
		on, err := RunRCCE(w, cfg, partition.PolicySizeAscending)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig62Row{
			Workload:  w.Name,
			OffChipS:  off.Seconds(),
			OnChipS:   on.Seconds(),
			Gain:      float64(off.Makespan) / float64(on.Makespan),
			OnChipB:   on.OnChipBytes,
			ResultsOK: SameResults(off.Output, on.Output),
		})
	}
	return rows, nil
}

// Fig63Row is one point of Figure 6.3: Pi Approximation speedup over the
// single-core baseline as the core count grows.
type Fig63Row struct {
	Cores   int
	Speedup float64
	RCCES   float64
}

// Fig63 reproduces Figure 6.3: Pi speedup vs core count. The baseline is
// the Pthread program with `cores` threads on one core, exactly as the
// thesis normalises its scaling study.
func Fig63(cfg Config, coreCounts []int) ([]Fig63Row, error) {
	if coreCounts == nil {
		coreCounts = []int{1, 2, 4, 8, 16, 32, 48}
	}
	w, _ := ByKey("pi")
	var rows []Fig63Row
	for _, n := range coreCounts {
		c := cfg
		c.Threads = n
		both, err := RunBothBackends(w, c, partition.PolicySizeAscending)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig63Row{Cores: n, Speedup: Speedup(both.Baseline, both.RCCE), RCCES: both.RCCE.Seconds()})
	}
	return rows, nil
}

// FormatFig61 renders Figure 6.1 as text.
func FormatFig61(rows []Fig61Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 6.1 — RCCE (off-chip shared) speedup over same-thread-count 1-core Pthread\n")
	fmt.Fprintf(&sb, "%-18s %12s %12s %9s %8s  %s\n", "Benchmark", "Pthread (s)", "RCCE (s)", "Speedup", "Match", "Paper")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %12.4f %12.4f %8.1fx %8v  %s\n",
			r.Workload, r.BaselineS, r.RCCES, r.Speedup, r.ResultsOK, r.PaperNote)
	}
	return sb.String()
}

// FormatFig62 renders Figure 6.2 as text.
func FormatFig62(rows []Fig62Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 6.2 — RCCE runtime: off-chip shared DRAM vs on-chip MPB (Stage 4)\n")
	fmt.Fprintf(&sb, "%-18s %12s %12s %9s %10s %7s\n", "Benchmark", "Off-chip (s)", "On-chip (s)", "Gain", "MPB bytes", "Match")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %12.4f %12.4f %8.1fx %10d %7v\n",
			r.Workload, r.OffChipS, r.OnChipS, r.Gain, r.OnChipB, r.ResultsOK)
		sum += r.Gain
	}
	fmt.Fprintf(&sb, "%-18s %35.1fx (paper: 8x on average)\n", "geometric context:", sum/float64(len(rows)))
	return sb.String()
}

// FormatFig63 renders Figure 6.3 as text.
func FormatFig63(rows []Fig63Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 6.3 — Pi Approximation speedup vs core count\n")
	fmt.Fprintf(&sb, "%6s %9s %12s\n", "Cores", "Speedup", "RCCE (s)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%6d %8.1fx %12.4f\n", r.Cores, r.Speedup, r.RCCES)
	}
	return sb.String()
}

// Table61 renders the configuration table of cfg's machine.
func Table61(cfg Config) string {
	return cfg.MachineConfig().Table61(cfg.Threads)
}
