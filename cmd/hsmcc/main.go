// Command hsmcc is the paper's source-to-source translator: it reads a
// Pthread C program, runs the five-stage analysis and translation
// pipeline, and emits the RCCE program for the SCC.
//
// Usage:
//
//	hsmcc [-cores N] [-policy size|freq|offchip] [-mpb BYTES]
//	      [-tables] [-log] [-o out.c] input.c
//
// With -tables the per-variable analysis (thesis Tables 4.1/4.2) and the
// Stage 4 partitioning decision are printed to stderr.
package main

import (
	"flag"
	"fmt"
	"os"

	"hsmcc"
)

func main() {
	cores := flag.Int("cores", 32, "number of SCC cores the program targets (the emitted program reads its UE count at run time and does not depend on this value)")
	policyName := flag.String("policy", "size", "Stage 4 policy: size (Algorithm 3), freq, offchip")
	mpb := flag.Int("mpb", 0, "on-chip shared memory budget in bytes (0 = full 384 KB MPB; negative or larger is an error)")
	tables := flag.Bool("tables", false, "print the Tables 4.1/4.2 analysis to stderr")
	log := flag.Bool("log", false, "print the Stage 5 pass log to stderr")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hsmcc [flags] input.c")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var policy hsmcc.PartitionPolicy
	switch *policyName {
	case "size":
		policy = hsmcc.SizeAscending
	case "freq":
		policy = hsmcc.FrequencyDensity
	case "offchip":
		policy = hsmcc.OffChipOnly
	default:
		fmt.Fprintf(os.Stderr, "hsmcc: unknown policy %q\n", *policyName)
		os.Exit(2)
	}

	res, err := hsmcc.TranslateFile(flag.Arg(0), hsmcc.Options{
		Cores:       *cores,
		MPBCapacity: *mpb,
		Policy:      policy,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hsmcc:", err)
		os.Exit(1)
	}

	if *tables {
		fmt.Fprintln(os.Stderr, "Table 4.1 — per-variable information (post Stage 3)")
		fmt.Fprint(os.Stderr, res.Table41())
		fmt.Fprintln(os.Stderr)
		fmt.Fprintln(os.Stderr, "Table 4.2 — sharing status per stage")
		fmt.Fprint(os.Stderr, res.Table42())
		if res.Part != nil {
			fmt.Fprintln(os.Stderr)
			fmt.Fprintln(os.Stderr, "Stage 4 — data partitioning")
			fmt.Fprint(os.Stderr, res.Part.Dump())
		}
	}
	if *log {
		for _, line := range res.PassLog() {
			fmt.Fprintln(os.Stderr, "pass:", line)
		}
	}
	if *out == "" {
		fmt.Print(res.Output)
		return
	}
	if err := os.WriteFile(*out, []byte(res.Output), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "hsmcc:", err)
		os.Exit(1)
	}
}
