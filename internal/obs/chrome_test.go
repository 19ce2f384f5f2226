package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// benchSpanFile is the shape of the lifecycle benchmark's span file: an
// object with a display unit beside the events, and numeric args.
const benchSpanFile = `{"displayTimeUnit":"ms","traceEvents":[` +
	`{"name":"checkpoint","cat":"benchmark","ph":"X","ts":0,"dur":1500.5,"pid":1,"tid":0,"args":{"id":0,"parent":-1,"round":0}},` +
	`{"name":"write","cat":"benchmark","ph":"X","ts":10,"dur":20,"pid":1,"tid":1,"args":{"id":1,"parent":0,"round":0}}]}`

// ReadChrome takes any JSON scalar as an arg value and keeps its text.
func TestReadChromeScalarArgs(t *testing.T) {
	tr, err := ReadChrome(strings.NewReader(benchSpanFile))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ValidateChrome(tr); err != nil || n != 2 {
		t.Fatalf("benchmark span file: spans=%d err=%v", n, err)
	}
	want := ChromeArgs{"id": "1", "parent": "0", "round": "0"}
	if got := tr.TraceEvents[1].Args; !reflect.DeepEqual(got, want) {
		t.Fatalf("args = %v, want %v", got, want)
	}
	tr, err = ReadChrome(strings.NewReader(
		`[{"name":"a","ph":"X","pid":1,"tid":0,"args":{"s":"x y","f":-1.5e3,"t":true,"n":null}}]`))
	if err != nil {
		t.Fatal(err)
	}
	want = ChromeArgs{"s": "x y", "f": "-1.5e3", "t": "true", "n": "null"}
	if got := tr.TraceEvents[0].Args; !reflect.DeepEqual(got, want) {
		t.Fatalf("args = %v, want %v", got, want)
	}
	for _, bad := range []string{`{"k":{"a":1}}`, `{"k":[1]}`} {
		in := `[{"name":"a","ph":"X","pid":1,"tid":0,"args":` + bad + `}]`
		if _, err := ReadChrome(strings.NewReader(in)); err == nil {
			t.Errorf("args %s: accepted a non-scalar value", bad)
		}
	}
}

// FuzzReadChrome: whatever the bytes, ReadChrome returns a trace or an
// error without panicking, and a trace it returns is a fixed point —
// written back as JSON it reads as the same events.
func FuzzReadChrome(f *testing.F) {
	tr := NewTracer()
	tr.NameProcess(PidRank(0), "rank 0")
	tr.Emit(PidRank(0), "core", "step", 0, 1000, KV{Key: "step", Val: "1"})
	tr.EmitOn(PidServers, 0, "pfs", "serve", 200, 400, KV{Key: "bytes", Val: "24"})
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(benchSpanFile))
	f.Add([]byte(`[{"name":"a","ph":"X","ts":0,"dur":1,"pid":1,"tid":0,"args":{"n":null,"b":false}}]`))
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := ReadChrome(bytes.NewReader(in))
		if err != nil {
			return
		}
		_, _ = ValidateChrome(got)
		out, err := json.Marshal(got)
		if err != nil {
			t.Fatalf("re-encoding a trace ReadChrome accepted: %v", err)
		}
		again, err := ReadChrome(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-reading %s: %v", out, err)
		}
		if !reflect.DeepEqual(normalise(got), normalise(again)) {
			t.Fatalf("not a fixed point:\n read %+v\nagain %+v", got, again)
		}
	})
}

// normalise maps empty args to nil: the writer omits both alike.
func normalise(tr *ChromeTrace) *ChromeTrace {
	for i := range tr.TraceEvents {
		if len(tr.TraceEvents[i].Args) == 0 {
			tr.TraceEvents[i].Args = nil
		}
	}
	if len(tr.TraceEvents) == 0 {
		tr.TraceEvents = nil
	}
	return tr
}
