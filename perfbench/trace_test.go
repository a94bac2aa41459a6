package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "root", Start: at(0), End: at(100)},
		// Two overlapping children count once: [10,40) ∪ [30,50) = 40 ms.
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "b", Start: at(30), End: at(50)},
		// A child running past its parent is clipped: [90,100) = 10 ms.
		{ID: 4, Parent: 1, Name: "c", Start: at(90), End: at(120)},
		// A grandchild reduces its parent, not the root.
		{ID: 5, Parent: 2, Name: "g", Start: at(15), End: at(20)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 50 * time.Millisecond, // 100 - 40 - 10
		2: 25 * time.Millisecond, // 30 - 5
		3: 20 * time.Millisecond,
		4: 30 * time.Millisecond,
		5: 5 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %v, want %v", id, self[id], w)
		}
	}
	if got := selfByName(spans, self, "a"); len(got) != 1 || got[0] != 25*time.Millisecond {
		t.Errorf("selfByName(a) = %v", got)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	ran := false
	tr.call("x", 0, 0, func() { ran = true })
	if !ran || tr.snapshot() != nil {
		t.Errorf("nil tracer: ran=%v spans=%v", ran, tr.snapshot())
	}
	tr = &tracer{}
	s := tr.open("p", 0, 7)
	tr.call("c", s.ID, 7, func() {})
	tr.close(s)
	got := tr.snapshot()
	if len(got) != 2 || got[0].Name != "c" || got[0].Parent != s.ID || got[1].Req != 7 {
		t.Errorf("spans %+v", got)
	}
}
