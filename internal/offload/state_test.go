package offload

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/statecodec"
	"repro/internal/telemetry"
)

// TestReplayCacheBounds pins the v4 replay cache's eviction contract:
// entries and bytes are capped, oldest entries go first, the newest
// entry always survives, and every cached seq stays answerable until
// evicted.
func TestReplayCacheBounds(t *testing.T) {
	c := replayCache{maxEntries: 4, maxBytes: 1 << 20}
	evicted := 0
	for seq := uint32(1); seq <= 10; seq++ {
		evicted += c.put(seq, []byte(fmt.Sprintf("result-%d", seq)))
	}
	if evicted != 6 {
		t.Fatalf("evicted %d entries, want 6", evicted)
	}
	if len(c.entries) != 4 {
		t.Fatalf("cache holds %d entries, want 4", len(c.entries))
	}
	for seq := uint32(1); seq <= 6; seq++ {
		if c.get(seq) != nil {
			t.Errorf("seq %d should have been evicted", seq)
		}
	}
	for seq := uint32(7); seq <= 10; seq++ {
		want := fmt.Sprintf("result-%d", seq)
		if got := c.get(seq); string(got) != want {
			t.Errorf("seq %d: got %q, want %q", seq, got, want)
		}
	}

	// Byte cap: payloads of 100 bytes under a 250-byte cap keep 2.
	c = replayCache{maxEntries: 100, maxBytes: 250}
	for seq := uint32(1); seq <= 5; seq++ {
		c.put(seq, make([]byte, 100))
	}
	if len(c.entries) != 2 || c.bytes != 200 {
		t.Fatalf("byte-capped cache holds %d entries / %d bytes, want 2 / 200", len(c.entries), c.bytes)
	}

	// An oversized payload still keeps exactly the newest entry.
	c.put(6, make([]byte, 1000))
	if len(c.entries) != 1 || c.get(6) == nil {
		t.Fatalf("oversized newest entry must survive alone, have %d entries", len(c.entries))
	}

	// Re-putting an existing seq replaces, never duplicates.
	c = replayCache{}
	c.put(1, []byte("a"))
	c.put(1, []byte("bb"))
	if len(c.entries) != 1 || string(c.get(1)) != "bb" || c.bytes != 2 {
		t.Fatalf("re-put must replace: %d entries, %q, %d bytes", len(c.entries), c.get(1), c.bytes)
	}
}

// TestSessionStateRoundTrip pins the handoff blob codec.
func TestSessionStateRoundTrip(t *testing.T) {
	st := &SessionState{
		ClientID: "phone-42",
		Proto:    ProtocolV5,
		Seq:      17,
		Replay: []ReplayEntry{
			{Seq: 16, Payload: []byte("r16")},
			{Seq: 17, Payload: []byte("r17")},
		},
		MapVers: map[byte]uint64{MapWiFi: 9, MapCellular: 4},
		FW:      []byte{1, 2, 3, 4},
	}
	blob := EncodeSessionState(st)
	got, err := DecodeSessionState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.ClientID != st.ClientID || got.Proto != st.Proto || got.Seq != st.Seq {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Replay) != 2 || got.Replay[0].Seq != 16 || !bytes.Equal(got.Replay[1].Payload, []byte("r17")) {
		t.Fatalf("replay mismatch: %+v", got.Replay)
	}
	if got.MapVers[MapWiFi] != 9 || got.MapVers[MapCellular] != 4 {
		t.Fatalf("map versions mismatch: %+v", got.MapVers)
	}
	if !bytes.Equal(got.FW, st.FW) {
		t.Fatalf("framework blob mismatch")
	}

	// Truncations and version skew fail loudly, never misread.
	if _, err := DecodeSessionState(blob[:len(blob)-3]); err == nil {
		t.Fatal("truncated blob must be rejected")
	}
	bad := append([]byte{}, blob...)
	bad[0] = 99
	if _, err := DecodeSessionState(bad); err == nil {
		t.Fatal("unknown version must be rejected")
	}
}

// TestDecodeSessionStateRejectsHugeCounts pins the decoder against
// hostile element counts in peer bytes: a count the rest of the blob
// cannot hold is refused before anything is allocated for it.
func TestDecodeSessionStateRejectsHugeCounts(t *testing.T) {
	// Version 1, client ID "x", proto 5, seq 0, nReplay = 0xFFFFFFF0.
	replay := []byte{1, 1, 0, 0, 0, 'x', 5, 0, 0, 0, 0, 0xF0, 0xFF, 0xFF, 0xFF}
	if len(replay) != 15 {
		t.Fatalf("blob is %d bytes, want 15", len(replay))
	}
	// The same header with no replay entries and a huge map-version count.
	vers := statecodec.AppendU32(append(replay[:11:11], 0, 0, 0, 0), 0xFFFFFFF0)
	for name, blob := range map[string][]byte{"replay": replay, "map versions": vers} {
		if _, err := DecodeSessionState(blob); !errors.Is(err, statecodec.ErrShort) {
			t.Errorf("huge %s count: err = %v, want ErrShort", name, err)
		}
	}
}

// TestServerSurvivesEmptyFrameworkBlob injects a handoff blob whose
// framework snapshot is empty — it decodes cleanly, so only Restore can
// refuse it — through a hello. The injection must fail and be counted,
// the hello must fall through to a fresh session, and the server must
// keep serving.
func TestServerSurvivesEmptyFrameworkBlob(t *testing.T) {
	factory, w := offloadWorld(t)
	blob := EncodeSessionState(&SessionState{ClientID: "walker", Proto: ProtocolV5, Seq: 3})
	var fetches atomic.Int32
	reg := telemetry.NewRegistry()
	srv := newTestServer(t, ServerConfig{
		Factory: factory,
		Metrics: reg,
		FetchSession: func(string) []byte {
			fetches.Add(1)
			return blob
		},
	})
	client := pipeClient(t, srv)
	client.clientID = "walker"
	start, snaps := corridorWalk(w, 2, 11, 3)
	results := runWalk(t, client, start, snaps)
	if !results[len(results)-1].OK {
		t.Fatalf("walk after a refused injection failed: %+v", results[len(results)-1])
	}
	if fetches.Load() != 1 || client.Resumes() != 0 {
		t.Fatalf("fetches = %d, resumes = %d; want 1 fetch and a fresh session", fetches.Load(), client.Resumes())
	}
	st := srv.Stats()
	if st.InjectFailures != 1 || st.Injected != 0 || st.Opened != 1 {
		t.Fatalf("inject failures = %d, injected = %d, opened = %d; want 1, 0, 1", st.InjectFailures, st.Injected, st.Opened)
	}
	if v, _ := reg.Snapshot().Get("uniloc_inject_failures_total"); v != 1 {
		t.Fatalf("uniloc_inject_failures_total = %v, want 1", v)
	}
}
