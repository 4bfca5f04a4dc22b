package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one query share
// an ID (workload/query/rep); Parent is an index into the tracer's span
// list (-1 for a root), so a span's self time is its duration minus its
// direct children's.
type span struct {
	Name   string
	ID     string
	Start  time.Duration // offset from the tracer epoch (monotonic clock)
	End    time.Duration
	Parent int
	Tid    int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced and traced runs execute the same driver code.
// begin/end are for the single generator goroutine; add is for spans built
// after the fact from timestamps other goroutines took.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name, id string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Tid: 1, Start: time.Since(t.epoch)})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.epoch)
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) add(name, id string, start, end time.Time, parent, tid int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Tid: tid,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return len(t.spans) - 1
}

// selfTimes returns each span's duration minus its direct children's.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// sum totals the durations of every span with the given name.
func (t *tracer) sum(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), the format Perfetto and chrome://tracing
// open directly.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: s.Name, Cat: "bench", Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Tid, Args: map[string]string{"id": s.ID}}
	}
	data, err := json.Marshal(map[string]interface{}{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
