package offload

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sensing"
	"repro/internal/telemetry/trace"
)

func TestNegotiate(t *testing.T) {
	for _, tc := range []struct {
		server, client, want byte
	}{
		{ProtocolV5, ProtocolV5, ProtocolV5},
		{ProtocolV5, ProtocolV4, ProtocolV4},     // old client keeps old semantics
		{ProtocolV4, ProtocolV5, ProtocolV4},     // old server wins too
		{ProtocolV5, ProtocolV5 + 3, ProtocolV5}, // future client runs at our max
	} {
		if got, err := Negotiate(tc.server, tc.client); err != nil || got != tc.want {
			t.Errorf("Negotiate(%d, %d) = %d, %v; want %d", tc.server, tc.client, got, err, tc.want)
		}
	}
	// Retired versions are refused, never pinned up to a floor.
	for _, client := range []byte{0, 2, 3} {
		_, err := Negotiate(ProtocolV5, client)
		want := fmt.Sprintf("unsupported protocol v%d (need v4+)", client)
		if err == nil || err.Error() != want {
			t.Errorf("Negotiate(v5, %d) error = %v, want %q", client, err, want)
		}
	}
}

func TestContextTraceCodec(t *testing.T) {
	tr := trace.New(trace.Config{Seed: 3})
	tctx := trace.SpanContext{Trace: tr.NewTraceID(), Span: tr.NewSpanID()}
	snap := &sensing.Snapshot{Epoch: 77, LightLux: 120, MagVarUT: 1.5, GPSEnabled: true}

	b := EncodeContext(snap, 9, tctx)
	if len(b) != 17+trace.ContextBytes {
		t.Fatalf("v5 context = %d bytes, want %d", len(b), 17+trace.ContextBytes)
	}
	s, seq, back, err := DecodeContext(b)
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch != 77 || !s.GPSEnabled || seq != 9 {
		t.Errorf("decoded snap = %+v seq = %d", s, seq)
	}
	if back != tctx {
		t.Errorf("trace context = %+v, want %+v", back, tctx)
	}

	// Without a valid context the header stays at its 17-byte v4 size.
	plain := EncodeContext(snap, 5, trace.SpanContext{})
	if len(plain) != 17 {
		t.Fatalf("context without span = %d bytes, want 17", len(plain))
	}
	s, seq, back, err = DecodeContext(plain)
	if err != nil || seq != 5 || back.Valid() || s.Epoch != 77 {
		t.Errorf("v4 header: %+v %d %+v %v", s, seq, back, err)
	}

	// An all-zero span context on the wire decodes as "no trace".
	s, seq, back, err = DecodeContext(trace.AppendContext(plain, trace.SpanContext{}))
	if err != nil || back.Valid() || s.Epoch != 77 || seq != 5 {
		t.Errorf("zero context: %+v %d %+v %v", s, seq, back, err)
	}

	// The retired 13-byte v3 header and odd lengths are protocol errors.
	for _, n := range []int{13, 20} {
		if _, _, _, err := DecodeContext(make([]byte, n)); !errors.Is(err, ErrProtocol) {
			t.Errorf("%d-byte context: err = %v, want ErrProtocol", n, err)
		}
	}
}

// waitForSpans polls until the tracer's ring holds at least want spans
// named name. The server ends its frame span after the result write,
// so the last epoch's record lands in the ring slightly after the
// client's Localize returns.
func waitForSpans(t *testing.T, tr *trace.Tracer, name string, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := 0
		for _, r := range tr.Snapshot() {
			if r.Name == name {
				n++
			}
		}
		if n >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d %q spans, want %d", n, name, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestV5ClientV4ServerDowngrade pins satellite 6's compatibility
// contract: a v5 client against a server capped at v4 negotiates the
// session down, sends no trace bytes, and every v4 behavior (resume
// seq numbers included) keeps working.
func TestV5ClientV4ServerDowngrade(t *testing.T) {
	factory, w := offloadWorld(t)
	srvTracer := trace.New(trace.Config{Seed: 21})
	srv := newTestServer(t, ServerConfig{
		Factory:     factory,
		MaxProtocol: ProtocolV4,
		Tracer:      srvTracer,
	})
	client := pipeClient(t, srv)
	client.SetTracer(trace.New(trace.Config{Seed: 22}))

	start, snaps := corridorWalk(w, 2, 3, 8)
	results := runWalk(t, client, start, snaps)
	if len(results) != 8 || !results[len(results)-1].OK {
		t.Fatalf("walk failed under downgrade: %+v", results[len(results)-1])
	}
	if client.Proto() != ProtocolV4 {
		t.Fatalf("client proto = %d, want %d", client.Proto(), ProtocolV4)
	}

	// The server still traces its own frames, but none of them joined a
	// client trace — the v4 session carried no span context.
	waitForSpans(t, srvTracer, "server.frame", 8)
	frames := 0
	for _, r := range srvTracer.Snapshot() {
		if r.Name != "server.frame" {
			continue
		}
		frames++
		if r.Parent != "" {
			t.Errorf("v4 session frame span has remote parent %q", r.Parent)
		}
	}
	if frames != 8 {
		t.Errorf("server traced %d frames, want 8", frames)
	}
}

// TestEndToEndTraceSmoke is the acceptance walk: tracing on across
// client, server, and batch scheduler must yield complete span trees —
// client.epoch → server.frame → {server.read, server.queue, step →
// scheme.*, server.write} — with the frame's children explaining the
// bulk of its latency. CI runs this by name.
func TestEndToEndTraceSmoke(t *testing.T) {
	factory, w := offloadWorld(t)
	// One shared tracer stands in for client and server exporting into
	// the same backend, so Assemble sees whole trees.
	tracer := trace.New(trace.Config{Seed: 31})
	srv := newTestServer(t, ServerConfig{
		Factory:      factory,
		Tracer:       tracer,
		BatchTick:    2 * time.Millisecond,
		BatchWorkers: 1,
	})
	client := pipeClient(t, srv)
	client.SetTracer(tracer)

	const epochs = 12
	start, snaps := corridorWalk(w, 2, 3, epochs)
	runWalk(t, client, start, snaps)
	waitForSpans(t, tracer, "server.frame", epochs)

	trees := trace.Assemble(tracer.Snapshot())
	var complete int
	var frameDur, frameChild int64
	for _, tr := range trees {
		if !tr.Complete() || tr.Root.Name != "client.epoch" {
			continue
		}
		complete++
		names := map[string]*trace.Record{}
		schemes := 0
		for _, s := range tr.Spans {
			names[s.Name] = s
			if strings.HasPrefix(s.Name, "scheme.") {
				schemes++
			}
		}
		frame := names["server.frame"]
		if frame == nil {
			t.Fatalf("trace %s has no server.frame span: %+v", tr.Trace, tr.Spans)
		}
		if frame.Parent != tr.Root.Span {
			t.Errorf("frame span parent = %q, want client root %q", frame.Parent, tr.Root.Span)
		}
		for _, want := range []string{"server.read", "server.queue", "step", "server.write", "classify", "combine"} {
			if names[want] == nil {
				t.Errorf("trace %s missing %q span", tr.Trace, want)
			}
		}
		if schemes == 0 {
			t.Errorf("trace %s has no scheme spans", tr.Trace)
		}
		if step := names["step"]; step != nil {
			var hasTick bool
			for _, a := range step.Attrs {
				if a.K == "batch_tick" {
					hasTick = true
				}
			}
			if !hasTick {
				t.Errorf("trace %s step span missing batch_tick link attr", tr.Trace)
			}
		}
		cov := trace.CriticalPath(tr, frame)
		frameDur += frame.DurNS
		frameChild += cov.ChildNS
	}
	if complete != epochs {
		t.Fatalf("complete client-rooted traces = %d, want %d", complete, epochs)
	}
	// The acceptance bar: the frame's children (read, batch-queue wait,
	// step, write) must explain ≥90% of total frame latency. (The paper
	// target is 95%; 90% absorbs scheduling noise on tiny CI boxes —
	// every systematic gap would cost far more than 10%.)
	if frac := float64(frameChild) / float64(frameDur); frac < 0.9 {
		t.Errorf("frame critical-path coverage = %.3f, want >= 0.9", frac)
	}

	// batch.tick spans exist and carry the batch size.
	ticks := 0
	for _, r := range tracer.Snapshot() {
		if r.Name == "batch.tick" {
			ticks++
		}
	}
	if ticks == 0 {
		t.Error("no batch.tick spans recorded")
	}

	// The slowest frames surfaced as exemplars.
	cur, prev := tracer.Exemplars().Snapshot()
	if len(cur)+len(prev) == 0 {
		t.Error("no exemplars collected")
	}
}

// TestTraceOffServesIdentically is the zero-overhead sanity check: a
// server with no tracer must serve a v5 client (which sends no trace
// bytes without a tracer of its own) exactly as before.
func TestTraceOffServesIdentically(t *testing.T) {
	factory, w := offloadWorld(t)
	srv := newTestServer(t, ServerConfig{Factory: factory})
	client := pipeClient(t, srv)
	start, snaps := corridorWalk(w, 2, 3, 6)
	results := runWalk(t, client, start, snaps)
	if len(results) != 6 || !results[len(results)-1].OK {
		t.Fatalf("tracer-off walk failed: %+v", results[len(results)-1])
	}
	if client.Proto() != ProtocolV5 {
		t.Errorf("proto = %d, want %d", client.Proto(), ProtocolV5)
	}
}
