// Package core is the paper's "Driver": it chains the five stages of the
// translation framework (thesis Figure 1.1) into a single pipeline.
//
//	Stage 1  variable scope analysis      (internal/analysis/scope)
//	Stage 2  inter-thread analysis        (internal/analysis/interthread)
//	Stage 3  alias and points-to analysis (internal/analysis/pointsto)
//	Stage 4  data partitioning            (internal/partition)
//	Stage 5  source-to-source translation (internal/translate)
//
// The entry points mirror CETUS's AnalysisPass/TransformPass driver: Analyze
// runs Stages 1-3 and returns the per-variable findings; Translate runs
// Stage 5 with a Stage 4 decision (partition.Decide over SharedVars) on a
// copy of the analysed tree, so one analysis serves every placement.
package core

import (
	"fmt"
	"strings"

	"hsmcc/internal/analysis/interthread"
	"hsmcc/internal/analysis/pointsto"
	"hsmcc/internal/analysis/scope"
	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/parser"
	"hsmcc/internal/cc/printer"
	"hsmcc/internal/cc/sema"
	"hsmcc/internal/cc/types"
	"hsmcc/internal/partition"
	"hsmcc/internal/translate"
)

// Pipeline carries every artifact produced while translating one program.
type Pipeline struct {
	Name   string
	Source string

	// File and Sema are the Pthread program and its symbol tables after
	// Analyze, and the RCCE program — a separate tree — and its own
	// tables after Translate.
	File   *ast.File
	Sema   *sema.Info
	Scope  *scope.Result
	Inter  *interthread.Result
	Points *pointsto.Result
	Part   *partition.Result
	Unit   *translate.Unit

	// Output is the translated RCCE program as C source (empty until
	// Stage 5 has run).
	Output string
}

// Analyze parses src and runs Stages 1-3, leaving the program untranslated.
// The returned pipeline exposes the Table 4.1/4.2 data via its Scope and
// Points fields.
func Analyze(name, src string) (*Pipeline, error) {
	file, err := parser.Parse(name, src)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	info, err := sema.Analyze(file)
	if err != nil {
		return nil, fmt.Errorf("sema %s: %w", name, err)
	}
	p := &Pipeline{Name: name, Source: src, File: file, Sema: info}
	p.Scope = scope.Analyze(info)
	p.Inter = interthread.Analyze(p.Scope)
	p.Points = pointsto.Analyze(p.Inter, pointsto.Options{})
	return p, nil
}

// Translate runs Stage 5 with part, the Stage 4 decision over p's shared
// variables, on a deep copy of the analysed tree and returns a new
// pipeline: its File is the RCCE program, Sema that program's own symbol
// tables, Part the decision, Output its printed source, and Scope, Inter
// and Points the shared Stage 1-3 results. p itself — tree, symbols and
// analyses — is only read, so one analysis can serve any number of
// translations, concurrently.
func (p *Pipeline) Translate(part *partition.Result) (*Pipeline, error) {
	if p.Points == nil {
		return nil, fmt.Errorf("core: pipeline has not been analysed")
	}
	t := *p
	t.Part = part
	t.File = ast.Clone(p.File)
	unit, err := translate.Translate(t.File, p.Points, part, translate.Options{})
	if err != nil {
		return nil, fmt.Errorf("translate %s: %w", p.Name, err)
	}
	t.Unit = unit
	t.Output = printer.Print(t.File)
	if t.Sema, err = sema.Analyze(t.File); err != nil {
		return nil, fmt.Errorf("sema of translated %s: %w", p.Name, err)
	}
	return &t, nil
}

// SharedVars returns the Stage 1-3 shared set in declaration order.
func (p *Pipeline) SharedVars() []*scope.VarInfo { return p.Scope.SharedVars() }

// Table41 renders the per-variable information table (thesis Table 4.1)
// for every analysed variable: name, type, element count, read count,
// write count, use-in and def-in function lists.
func (p *Pipeline) Table41() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-12s %5s %4s %4s  %-14s %-14s\n",
		"Name", "Type", "Size", "Rd", "Wr", "Use In", "Def In")
	for _, v := range p.Scope.Vars {
		fmt.Fprintf(&sb, "%-10s %-12s %5d %4d %4d  %-14s %-14s\n",
			v.Name, typeColumn(v), v.Count, v.Reads, v.Writes,
			orNull(strings.Join(v.UseIn, ", ")), orNull(strings.Join(v.DefIn, ", ")))
	}
	return sb.String()
}

// Table42 renders the sharing-status trajectory table (thesis Table 4.2):
// the status of each variable after Stages 1, 2 and 3.
func (p *Pipeline) Table42() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-8s %-8s %-8s\n", "Variable", "Stage 1", "Stage 2", "Stage 3")
	for _, v := range p.Scope.Vars {
		fmt.Fprintf(&sb, "%-10s %-8s %-8s %-8s\n",
			v.Name, v.Stage1, v.Stage2, v.Stage3)
	}
	return sb.String()
}

// PassLog returns the Stage 5 pass log, one line per transformation.
func (p *Pipeline) PassLog() []string {
	if p.Unit == nil {
		return nil
	}
	return p.Unit.Log
}

func typeColumn(v *scope.VarInfo) string {
	t := v.Type
	if t == nil {
		return "n/a"
	}
	// Table 4.1 renders array types as element-pointer types (sum int*).
	if t.Kind == types.Array {
		return t.Elem.String() + "*"
	}
	return t.String()
}

func orNull(s string) string {
	if s == "" {
		return "null"
	}
	return s
}
