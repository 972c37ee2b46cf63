package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestMultiNilHandling(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi of no live tracers must be nil (the disabled sentinel)")
	}
	c := &Collector{}
	if Multi(nil, c, nil) != Tracer(c) {
		t.Error("Multi of one live tracer must return it unwrapped")
	}
	c2 := &Collector{}
	m := Multi(c, nil, c2)
	m.Emit(&Event{Type: EvPhase, Name: "x"})
	if len(c.Events()) != 1 || len(c2.Events()) != 1 {
		t.Errorf("fan-out missed a sink: %d, %d", len(c.Events()), len(c2.Events()))
	}
}

func TestWithJobStamps(t *testing.T) {
	var col Collector
	tr := WithJob("abc", &col)
	orig := &Event{Type: EvPass, Name: "cse"}
	tr.Emit(orig)
	if orig.Job != "" {
		t.Fatal("WithJob mutated the caller's event")
	}
	evs := col.Events()
	if len(evs) != 1 || evs[0].Job != "abc" || evs[0].Name != "cse" {
		t.Fatalf("stamped event = %+v", evs[0])
	}
	if WithJob("abc", nil) != nil {
		t.Fatal("WithJob(nil) must stay nil (disabled convention)")
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := &Collector{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Emit(&Event{Type: EvPass})
			}
		}()
	}
	wg.Wait()
	if n := len(c.Events()); n != 800 {
		t.Errorf("lost events: %d", n)
	}
}

func TestJSONLWriterOmitTimings(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	w.OmitTimings = true
	orig := &Event{Type: EvPass, Name: "cse", Func: "main", Changed: true,
		RTLsBefore: 10, RTLsAfter: 8, TimeNS: 123456789, DurNS: 42}
	w.Emit(orig)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if orig.TimeNS == 0 {
		t.Error("OmitTimings must copy, not mutate the caller's event")
	}
	line := buf.String()
	if strings.Contains(line, "t_ns") || strings.Contains(line, "dur_ns") {
		t.Errorf("timings leaked: %s", line)
	}
	var back Event
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "cse" || back.RTLsAfter != 8 || !back.Changed {
		t.Errorf("round trip lost fields: %+v", back)
	}
}

func TestJSONLWriterOmitsEmptyFields(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	w.Emit(&Event{Type: EvPhase, Name: "compile"})
	line := strings.TrimSpace(buf.String())
	if line != `{"type":"phase","name":"compile"}` {
		t.Errorf("unused fields not omitted: %s", line)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errFail }

var errFail = json.Unmarshal([]byte("{"), &struct{}{})

func TestJSONLWriterStickyError(t *testing.T) {
	w := NewJSONLWriter(failWriter{})
	w.Emit(&Event{Type: EvPhase})
	if w.Err() == nil {
		t.Fatal("write error not reported")
	}
	first := w.Err()
	w.Emit(&Event{Type: EvPhase})
	if w.Err() != first {
		t.Error("error not sticky")
	}
}

func TestChromeWriterFormat(t *testing.T) {
	var buf bytes.Buffer
	w := NewChromeWriter(&buf)
	w.Emit(&Event{Type: EvPass, Name: "cse", Func: "f", TimeNS: 5_000_000, DurNS: 2_000_000})
	w.Emit(&Event{Type: EvDecision, Func: "f", Block: "L1", Target: "L9",
		Outcome: OutApplied, TimeNS: 6_000_000})
	w.Emit(&Event{Type: EvPass, Name: "tiny", Func: "f", TimeNS: 7_000_000, DurNS: 10})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var all []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &all); err != nil {
		t.Fatalf("not a JSON array: %v", err)
	}
	// Drop the thread_name metadata; this test covers the event slices.
	var evs []map[string]any
	for _, e := range all {
		if e["ph"] != "M" {
			evs = append(evs, e)
		}
	}
	if len(evs) != 3 {
		t.Fatalf("want 3 events, got %d", len(evs))
	}
	if evs[0]["ph"] != "X" || evs[0]["dur"] != float64(2000) {
		t.Errorf("span not a complete slice: %v", evs[0])
	}
	if evs[0]["ts"] != float64(0) {
		t.Errorf("timestamps not rebased to zero: %v", evs[0])
	}
	if evs[1]["ph"] != "i" || evs[1]["s"] != "t" {
		t.Errorf("durationless event not an instant: %v", evs[1])
	}
	if evs[2]["dur"] != float64(1) {
		t.Errorf("sub-microsecond slice not clamped to 1us: %v", evs[2])
	}
	if name, _ := evs[1]["name"].(string); !strings.Contains(name, "L1") || !strings.Contains(name, "L9") {
		t.Errorf("decision display name misses the jump: %v", evs[1])
	}
}

func TestExplainNamesRollbacks(t *testing.T) {
	events := []*Event{
		{Type: EvDecision, Func: "main", Block: "L2", Target: "L7",
			Heuristic: "shortest", Outcome: OutApplied,
			Candidates: []Candidate{
				{Kind: KindReturns, RTLs: 4, Blocks: 2, RolledBack: true},
				{Kind: KindReturns, RTLs: 9, Blocks: 4, LoopCompleted: true, Applied: true},
			}},
		{Type: EvDecision, Func: "main", Block: "L5", Target: "L6", Outcome: OutDeleted},
		{Type: EvPass, Name: "cse", Func: "main", Changed: true, RTLsBefore: 12, RTLsAfter: 10},
	}
	var buf bytes.Buffer
	Explain(&buf, events)
	out := buf.String()
	for _, want := range []string{
		"ROLLED BACK (irreducible)",
		"loop-completed",
		"applied returns (+9 rtls)",
		"jump deleted",
		"1 reducibility rollbacks",
		"cse",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output misses %q:\n%s", want, out)
		}
	}
}

func TestExplainEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	Explain(&buf, nil)
	if !strings.Contains(buf.String(), "no replication decisions") {
		t.Errorf("empty trace not handled: %s", buf.String())
	}
}
