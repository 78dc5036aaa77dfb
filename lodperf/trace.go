package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a call site of the benchmark. Spans of
// one viewer, publish, probe or set-up share a trace identifier.
type span struct {
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// still tells the time, so call sites need no branches.
type tracer struct {
	enabled bool
	origin  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(enabled bool) *tracer {
	return &tracer{enabled: enabled, origin: time.Now()}
}

// now is the time since the tracer was created.
func (t *tracer) now() time.Duration { return time.Since(t.origin) }

func (t *tracer) span(trace, name string, start, end time.Duration) {
	if !t.enabled {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Trace: trace, Name: name, StartNs: int64(start), EndNs: int64(end)})
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
