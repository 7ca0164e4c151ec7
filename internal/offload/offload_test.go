package offload

import (
	"bytes"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/gnss"
	"repro/internal/imu"
	"repro/internal/rf"
	"repro/internal/sensing"
	"repro/internal/telemetry/trace"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello")
	n, err := WriteFrame(&buf, MsgWiFiVector, payload)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3+len(payload) {
		t.Errorf("wrote %d bytes", n)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgWiFiVector || string(got) != "hello" {
		t.Errorf("round trip = %v %q", typ, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, MsgEpochEnd, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(&buf)
	if err != nil || typ != MsgEpochEnd || len(payload) != 0 {
		t.Errorf("empty frame: %v %v %v", typ, payload, err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, MsgWiFiVector, make([]byte, maxPayload+1)); err == nil {
		t.Error("oversized payload should fail")
	}
}

func TestStepCodecIs4Bytes(t *testing.T) {
	ev := &imu.StepEvent{HeadingR: 1.2345, LengthM: 0.73, PeriodS: 0.5}
	b := EncodeStep(ev)
	if len(b) != 4 {
		t.Fatalf("step update must be the paper's 4 bytes, got %d", len(b))
	}
	back, err := DecodeStep(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(back.HeadingR-ev.HeadingR) > 1e-3 {
		t.Errorf("heading %v -> %v", ev.HeadingR, back.HeadingR)
	}
	if math.Abs(back.LengthM-ev.LengthM) > 0.005 {
		t.Errorf("length %v -> %v", ev.LengthM, back.LengthM)
	}
	if _, err := DecodeStep([]byte{1, 2, 3}); err == nil {
		t.Error("short step should fail")
	}
}

func TestStepCodecNegativeHeading(t *testing.T) {
	ev := &imu.StepEvent{HeadingR: -2.9, LengthM: 0.6}
	back, err := DecodeStep(EncodeStep(ev))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(back.HeadingR-ev.HeadingR) > 1e-3 {
		t.Errorf("negative heading %v -> %v", ev.HeadingR, back.HeadingR)
	}
}

func TestVectorCodec(t *testing.T) {
	v := rf.Vector{{ID: "AP-long-name-01", RSSI: -63.4}, {ID: "b", RSSI: -91.2}}
	back, err := DecodeVector(EncodeVector(v))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("len = %d", len(back))
	}
	for i := range v {
		if back[i].ID != v[i].ID {
			t.Errorf("id %q -> %q", v[i].ID, back[i].ID)
		}
		if math.Abs(back[i].RSSI-v[i].RSSI) > 0.05 {
			t.Errorf("rssi %v -> %v", v[i].RSSI, back[i].RSSI)
		}
	}
	// Empty vector round-trips.
	empty, err := DecodeVector(EncodeVector(nil))
	if err != nil || len(empty) != 0 {
		t.Error("empty vector round trip failed")
	}
	// Truncated payload rejected.
	if _, err := DecodeVector(EncodeVector(v)[:5]); err == nil {
		t.Error("truncated vector should fail")
	}
}

func TestFixCodec(t *testing.T) {
	f := &gnss.Fix{Pos: geo.LatLon{Lat: 1.34832, Lon: 103.68311}, NumSats: 9, HDOP: 1.13}
	back, err := DecodeFix(EncodeFix(f))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSats != 9 || math.Abs(back.HDOP-1.13) > 1e-3 {
		t.Errorf("fix meta %d %v", back.NumSats, back.HDOP)
	}
	if math.Abs(back.Pos.Lat-f.Pos.Lat) > 1e-9 || math.Abs(back.Pos.Lon-f.Pos.Lon) > 1e-9 {
		t.Error("lat/lon must round-trip at full precision")
	}
	if _, err := DecodeFix([]byte{1}); err == nil {
		t.Error("short fix should fail")
	}
}

func TestContextCodec(t *testing.T) {
	s := &sensing.Snapshot{Epoch: 1234, LightLux: 10543.5, MagVarUT: 2.25, GPSEnabled: true}
	back, seq, _, err := DecodeContext(EncodeContext(s, 41, trace.SpanContext{}))
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch != 1234 || !back.GPSEnabled || seq != 41 {
		t.Error("context meta wrong")
	}
	if math.Abs(back.LightLux-s.LightLux) > 1 || math.Abs(back.MagVarUT-s.MagVarUT) > 0.01 {
		t.Error("context values wrong")
	}
	if back.T != time.Duration(1234)*sensing.EpochPeriod {
		t.Errorf("T = %v", back.T)
	}
}

func TestLandmarkCodec(t *testing.T) {
	l := &sensing.LandmarkHit{ID: "lm07-turn", Pos: sensing.Landmark2D{X: 56.5, Y: 10.5}, Kind: "turn"}
	back, err := DecodeLandmark(EncodeLandmark(l))
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != l.ID || back.Kind != l.Kind {
		t.Error("landmark meta wrong")
	}
	if math.Abs(back.Pos.X-56.5) > 1e-3 || math.Abs(back.Pos.Y-10.5) > 1e-3 {
		t.Error("landmark position wrong")
	}
	if _, err := DecodeLandmark([]byte{5, 'a'}); err == nil {
		t.Error("truncated landmark should fail")
	}
}

func TestResultCodec(t *testing.T) {
	r := &Result{X: 12.5, Y: -3.25, BestX: 11, BestY: -2, Selected: "fusion", Env: 1, OK: true}
	back, err := DecodeResult(EncodeResult(r))
	if err != nil {
		t.Fatal(err)
	}
	if back.Selected != "fusion" || back.Env != 1 {
		t.Error("result meta wrong")
	}
	if !back.OK {
		t.Error("OK flag must round-trip")
	}
	// An unavailable epoch round-trips OK=false so the client can
	// distinguish "no scheme available" from a fix at the origin.
	unavail, err := DecodeResult(EncodeResult(&Result{}))
	if err != nil {
		t.Fatal(err)
	}
	if unavail.OK {
		t.Error("zero result must decode with OK=false")
	}
	if math.Abs(back.X-12.5) > 1e-3 || math.Abs(back.BestY+2) > 1e-3 {
		t.Error("result coordinates wrong")
	}
	if back.Pos() != geo.Pt(back.X, back.Y) || back.BestPos() != geo.Pt(back.BestX, back.BestY) {
		t.Error("Pos helpers wrong")
	}
	if _, err := DecodeResult([]byte{1, 2}); err == nil {
		t.Error("short result should fail")
	}
}

func TestHelloCodec(t *testing.T) {
	h := &Hello{Version: ProtocolVersion, StartX: 12.25, StartY: -4.5, ClientID: "phone-7"}
	back, err := DecodeHello(EncodeHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != ProtocolVersion || back.ClientID != "phone-7" {
		t.Errorf("hello meta = %+v", back)
	}
	if math.Abs(back.StartX-12.25) > 1e-3 || math.Abs(back.StartY+4.5) > 1e-3 {
		t.Error("hello start wrong")
	}
	// Anonymous client (no ID) round-trips.
	anon, err := DecodeHello(EncodeHello(&Hello{Version: ProtocolVersion}))
	if err != nil || anon.ClientID != "" {
		t.Errorf("anonymous hello: %+v %v", anon, err)
	}
	if _, err := DecodeHello([]byte{2, 0}); err == nil {
		t.Error("short hello should fail")
	}
	if _, err := DecodeHello(EncodeHello(h)[:11]); err == nil {
		t.Error("truncated hello should fail")
	}
}

func TestWelcomeCodec(t *testing.T) {
	w := &Welcome{Version: ProtocolVersion, OK: true, SessionID: 90210}
	back, err := DecodeWelcome(EncodeWelcome(w))
	if err != nil {
		t.Fatal(err)
	}
	if !back.OK || back.SessionID != 90210 || back.Version != ProtocolVersion {
		t.Errorf("welcome = %+v", back)
	}
	rej, err := DecodeWelcome(EncodeWelcome(&Welcome{Version: ProtocolVersion, Reason: "offload: server full"}))
	if err != nil {
		t.Fatal(err)
	}
	if rej.OK || rej.Reason != "offload: server full" {
		t.Errorf("rejection = %+v", rej)
	}
	if _, err := DecodeWelcome([]byte{2, 1}); err == nil {
		t.Error("short welcome should fail")
	}
}

func TestLinkModel(t *testing.T) {
	l := WiFiLink()
	if l.TransferTime(0) != 0 {
		t.Error("zero bytes should be free")
	}
	small := l.TransferTime(100)
	big := l.TransferTime(100000)
	if small >= big {
		t.Error("more bytes must take longer")
	}
	if small < l.BaseLatency {
		t.Error("latency floor missing")
	}
	if CellLink().TransferTime(1000) <= WiFiLink().TransferTime(1000) {
		t.Error("cellular link should be slower")
	}
	if l.RoundTrip(100, 50) != l.TransferTime(100)+l.TransferTime(50) {
		t.Error("RoundTrip must sum both directions")
	}
	hs := HandshakeTime(l, "phone-1")
	if hs < 2*l.BaseLatency {
		t.Errorf("handshake %v must pay latency both ways", hs)
	}
	if HandshakeTime(l, "a-much-longer-client-identifier") <= hs-time.Millisecond {
		t.Error("longer client IDs cannot make the handshake cheaper")
	}
}

// pipeConn runs the server over net.Pipe and returns a client.
func pipeClient(t *testing.T, srv *Server) *Client {
	t.Helper()
	c1, c2 := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(c2) }()
	t.Cleanup(func() {
		_ = c1.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("server: %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Error("server did not stop")
		}
	})
	return NewClient(c1)
}
