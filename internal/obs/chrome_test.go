package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// TestChromeNames covers the display-name builder across every event
// type, including the default branch.
func TestChromeNames(t *testing.T) {
	for _, tc := range []struct {
		ev   Event
		want string
	}{
		{Event{Type: EvPass, Func: "main", Name: "cse"}, "main cse"},
		{Event{Type: EvPhase, Name: "optimize"}, "optimize"},
		{Event{Type: EvDecision, Func: "f", Block: "L1", Target: "L2", Outcome: OutDeleted},
			"f: jump L1 -> L2 (deleted)"},
		{Event{Type: EvBlock, Func: "f", Block: "L3", Count: 7}, "f L3 ×7"},
		{Event{Type: EvHot, Func: "f", Block: "L3", Count: 9}, "f L3 ×9"},
		{Event{Type: EvVerify, Func: "f", Rule: "cc-pairing", Name: "regalloc"},
			"f: cc-pairing violated after regalloc"},
		{Event{Type: "custom"}, "custom"},
	} {
		if got := chromeName(&tc.ev); got != tc.want {
			t.Errorf("chromeName(%s) = %q, want %q", tc.ev.Type, got, tc.want)
		}
	}
}

// TestChromeEscaping feeds names that need JSON escaping and checks the
// output is still a valid trace with the text intact.
func TestChromeEscaping(t *testing.T) {
	var buf bytes.Buffer
	w := NewChromeWriter(&buf)
	nasty := `say "hi"` + "\n\\backslash"
	w.Emit(&Event{Type: EvPhase, Name: nasty, TimeNS: 1000})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("escaped name broke the JSON: %v\n%s", err, buf.String())
	}
	found := false
	for _, e := range evs {
		if e["name"] == nasty {
			found = true
		}
	}
	if !found {
		t.Fatalf("name did not round-trip through escaping:\n%s", buf.String())
	}
}

// TestChromeTIDMapping checks the pid/tid model: one pid, lane 0 for
// function-less events, one lane per function in first-seen order, and a
// thread_name metadata record per lane.
func TestChromeTIDMapping(t *testing.T) {
	var buf bytes.Buffer
	w := NewChromeWriter(&buf)
	w.Emit(&Event{Type: EvPhase, Name: "queue-wait", TimeNS: 1000, DurNS: 1000})
	w.Emit(&Event{Type: EvPass, Name: "cse", Func: "alpha", TimeNS: 2000, DurNS: 1000})
	w.Emit(&Event{Type: EvPass, Name: "cse", Func: "beta", TimeNS: 3000, DurNS: 1000})
	w.Emit(&Event{Type: EvPass, Name: "dead-code", Func: "alpha", TimeNS: 4000, DurNS: 1000})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var evs []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	laneNames := map[int]string{}
	tidOf := map[string]int{}
	for _, e := range evs {
		if e.PID != chromePID {
			t.Fatalf("event %q on pid %d, want %d", e.Name, e.PID, chromePID)
		}
		if e.Ph == "M" {
			if e.Name != "thread_name" {
				t.Fatalf("unexpected metadata %q", e.Name)
			}
			laneNames[e.TID] = e.Args["name"].(string)
			continue
		}
		if fn, ok := e.Args["func"].(string); ok {
			tidOf[fn] = e.TID
		} else {
			tidOf[""] = e.TID
		}
	}
	if laneNames[0] != serviceLane {
		t.Fatalf("lane 0 named %q, want %q", laneNames[0], serviceLane)
	}
	if tidOf[""] != 0 {
		t.Fatalf("function-less event on tid %d, want 0", tidOf[""])
	}
	if tidOf["alpha"] != 1 || tidOf["beta"] != 2 {
		t.Fatalf("first-seen lane order broken: alpha=%d beta=%d", tidOf["alpha"], tidOf["beta"])
	}
	if laneNames[1] != "alpha" || laneNames[2] != "beta" {
		t.Fatalf("lane names %v, want alpha/beta on 1/2", laneNames)
	}
}

// errWriter fails every write.
type errWriter struct{ err error }

func (w errWriter) Write([]byte) (int, error) { return 0, w.err }

// TestChromeCloseError propagates the sink's write error out of Close.
func TestChromeCloseError(t *testing.T) {
	sentinel := errors.New("disk full")
	w := NewChromeWriter(errWriter{sentinel})
	w.Emit(&Event{Type: EvPhase, Name: "optimize", TimeNS: 1000, DurNS: 5})
	if err := w.Close(); !errors.Is(err, sentinel) {
		t.Fatalf("Close = %v, want the writer's error", err)
	}
}

// TestChromeEmptyClose writes a valid (metadata-only) array even with no
// events.
func TestChromeEmptyClose(t *testing.T) {
	var buf bytes.Buffer
	if err := NewChromeWriter(&buf).Close(); err != nil {
		t.Fatal(err)
	}
	out := strings.TrimSpace(buf.String())
	var evs []map[string]any
	if err := json.Unmarshal([]byte(out), &evs); err != nil {
		t.Fatalf("empty trace is not a JSON array: %v", err)
	}
}
