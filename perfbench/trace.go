package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share req; parent is the enclosing span's id (0 for a root).
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent"`
	Req    int64     `json:"req"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer records spans in memory. A nil *tracer is the untraced mode:
// every method is a no-op, so the timed code paths are identical either
// way apart from the recording itself.
type tracer struct {
	mu    sync.Mutex
	next  int64
	spans []span
}

// open starts a span; close it with (*tracer).close.
func (t *tracer) open(name string, parent, req int64) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return span{ID: id, Parent: parent, Req: req, Name: name, Start: time.Now()}
}

// close ends and records a span opened by open.
func (t *tracer) close(s span) {
	if t == nil {
		return
	}
	s.End = time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call runs fn under a span named name.
func (t *tracer) call(name string, parent, req int64, fn func()) {
	s := t.open(name, parent, req)
	fn()
	t.close(s)
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes maps every span id to its self time: its duration minus the
// part of its interval that its child spans cover. Children that overlap
// each other (parallel work under one parent) are counted once, and a
// child running past its parent's end is clipped to the parent.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// selfByName collects the self times of every span with the given name.
func selfByName(spans []span, self map[int64]time.Duration, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, self[s.ID])
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
