package main

import (
	"sort"
	"time"
)

// span is one timed interval of a traced op, recorded by the benchmark
// around its calls into a layer (or synthesized from what the layer
// returned). Spans of one op share Op; Parent names the enclosing span.
// Times are nanoseconds since the traced pass began.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced pass's spans in memory; they are written once, at
// exit. Spans are added after the ops they describe, from one goroutine.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) add(op int, name, parent string, start, end time.Time) {
	if end.Before(start) {
		end = start // synthesized children can cross by clock skew; never negative
	}
	l.spans = append(l.spans, span{Op: op, Name: name, Parent: parent, Start: start.Sub(l.origin).Nanoseconds(), End: end.Sub(l.origin).Nanoseconds()})
}

// selfTime is one span name's share of a traced pass.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"` // total minus the time its child spans cover
}

// selfTimes aggregates by name: a span's self time is its duration minus
// its children's (children of one parent never overlap here).
func (l *spanLog) selfTimes() []selfTime {
	byName := map[string]*selfTime{}
	get := func(name string) *selfTime {
		st := byName[name]
		if st == nil {
			st = &selfTime{Name: name}
			byName[name] = st
		}
		return st
	}
	for _, s := range l.spans {
		ms := float64(s.End-s.Start) / 1e6
		st := get(s.Name)
		st.Count++
		st.TotalMS += ms
		st.SelfMS += ms
		if s.Parent != "" {
			get(s.Parent).SelfMS -= ms
		}
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMS > out[j].TotalMS })
	return out
}
