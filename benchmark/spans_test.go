package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const msec = time.Millisecond

func TestSelfTimeSubtractsDirectChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100 * msec},
		{Name: "a", Parent: 0, Start: 10 * msec, End: 40 * msec},
		{Name: "b", Parent: 0, Start: 50 * msec, End: 90 * msec},
		{Name: "a.inner", Parent: 1, Start: 15 * msec, End: 25 * msec},
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	// Grandchildren are subtracted from their parent only.
	want := []time.Duration{30 * msec, 20 * msec, 40 * msec, 10 * msec}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
	var sum time.Duration
	for _, s := range self {
		sum += s
	}
	if sum != spans[0].dur() {
		t.Errorf("self times sum to %v, the root lasted %v", sum, spans[0].dur())
	}
	byName, err := selfByName(spans)
	if err != nil {
		t.Fatal(err)
	}
	if byName["a"] != 20 || byName["op"] != 30 {
		t.Errorf("selfByName = %v", byName)
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	// Children that together claim more than the parent measured.
	spans := []span{
		{Name: "parent", Parent: -1, Start: 0, End: 10 * msec},
		{Name: "c1", Parent: 0, Start: 0, End: 8 * msec},
		{Name: "c2", Parent: 0, Start: 2 * msec, End: 10 * msec},
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	if self[0] != 0 {
		t.Errorf("parent self = %v, want 0", self[0])
	}
}

func TestSelfTimeRequiresClosedSpans(t *testing.T) {
	tr := newTracer()
	k := tr.track(0)
	endOuter := k.begin("outer")
	k.begin("inner") // never closed
	if _, err := selfTimes(tr.spans); err == nil || !strings.Contains(err.Error(), "never closed") {
		t.Errorf("open spans: err = %v, want a never-closed error", err)
	}
	_ = endOuter
	if _, err := selfTimes([]span{{Name: "x", Parent: 3, Start: 0, End: 1}}); err == nil {
		t.Error("a parent index past the slice must be an error")
	}
}

func TestTrackNestsAndClipsModelledChildren(t *testing.T) {
	tr := newTracer()
	k := tr.track(2)
	k.op = 9
	endOp := k.begin("op")
	endParse := k.begin("parse")
	parse := k.last
	time.Sleep(2 * msec)
	endParse()
	// A modelled child longer than its parent is clipped to it.
	lex := k.modelled("lex", parse, tr.startOf(parse), time.Hour)
	endOp()
	sp := tr.spans
	if sp[parse].Parent != 0 || sp[lex].Parent != parse {
		t.Fatalf("parents: parse under %d, lex under %d", sp[parse].Parent, sp[lex].Parent)
	}
	if sp[lex].Start != sp[parse].Start || sp[lex].End != sp[parse].End {
		t.Errorf("lex [%v, %v] not clipped to parse [%v, %v]", sp[lex].Start, sp[lex].End, sp[parse].Start, sp[parse].End)
	}
	self, err := selfTimes(sp)
	if err != nil {
		t.Fatal(err)
	}
	if self[parse] != 0 || self[lex] != sp[parse].dur() {
		t.Errorf("self: parse %v, lex %v; want 0 and %v", self[parse], self[lex], sp[parse].dur())
	}
	for _, s := range sp {
		if s.Op != 9 || s.Worker != 2 {
			t.Errorf("span %s carries op %d worker %d, want 9 and 2", s.Name, s.Op, s.Worker)
		}
	}

	path := filepath.Join(t.TempDir(), "out", "x.trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Tid  int
			Args spanArgs
		}
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("trace file has %d events, want 3", len(doc.TraceEvents))
	}
	for i, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Tid != 2 || e.Args.ID != i || e.Args.Op != 9 {
			t.Errorf("event %d = %+v", i, e)
		}
	}
	if !doc.TraceEvents[2].Args.Modelled || doc.TraceEvents[2].Args.Parent != parse {
		t.Errorf("lex event args = %+v", doc.TraceEvents[2].Args)
	}
}
