package offload

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/mapstore"
	"repro/internal/rf"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// TestVersionMatrix runs the pairwise client×server matrix over the
// supported versions, v4 and v5: every combination must negotiate
// min(client, server), serve a short walk end to end, deliver a
// survey to the map store, and carry the client's span context only
// when the session runs at v5.
func TestVersionMatrix(t *testing.T) {
	versions := []byte{ProtocolV4, ProtocolV5}
	for _, sv := range versions {
		for _, cv := range versions {
			t.Run(fmt.Sprintf("server_v%d/client_v%d", sv, cv), func(t *testing.T) {
				factory, w, store := sharedStoreWorld(t, telemetry.NewRegistry())
				srvTracer := trace.New(trace.Config{Seed: 41})
				srv := newTestServer(t, ServerConfig{
					Factory:     factory,
					MaxProtocol: sv,
					MapStores:   map[byte]*mapstore.Store{MapWiFi: store},
					Tracer:      srvTracer,
				})
				client := pipeClient(t, srv)
				client.SetMaxProtocol(cv)
				client.SetTracer(trace.New(trace.Config{Seed: 42}))

				want := min(sv, cv)
				const epochs = 4
				start, snaps := corridorWalk(w, 2, int64(sv)*10+int64(cv), epochs)
				results := runWalk(t, client, start, snaps)
				if len(results) != epochs || !results[len(results)-1].OK {
					t.Fatalf("walk failed at v%d×v%d: %+v", sv, cv, results[len(results)-1])
				}
				if got := client.Proto(); got != want {
					t.Fatalf("negotiated v%d, want v%d", got, want)
				}

				// Trace bytes travel only at v5: there every server frame
				// continues the client's epoch span, at v4 none does.
				waitForSpans(t, srvTracer, "server.frame", epochs)
				joined := 0
				for _, r := range srvTracer.Snapshot() {
					if r.Name == "server.frame" && r.Parent != "" {
						joined++
					}
				}
				wantJoined := 0
				if want >= ProtocolV5 {
					wantJoined = epochs
				}
				if joined != wantJoined {
					t.Fatalf("v%d session: %d frames joined a client trace, want %d", want, joined, wantJoined)
				}

				if err := client.SubmitSurvey(MapWiFi, geo.Pt(3, 3),
					rf.Vector{{ID: "a0", RSSI: -48}, {ID: "a1", RSSI: -61}}); err != nil {
					t.Fatalf("v%d survey refused: %v", want, err)
				}
				// The frame is fire-and-forget; a follow-up epoch orders the
				// stream so the survey has been ingested by the time its
				// result returns.
				if _, err := client.Localize(snaps[len(snaps)-1]); err != nil {
					t.Fatal(err)
				}
				if store.Pending() != 1 {
					t.Fatalf("store pending = %d after v%d survey, want 1", store.Pending(), want)
				}
			})
		}
	}
}

// TestServerRejectsPreV4Hello pins the protocol floor: a hand-rolled
// v2 or v3 hello is refused with a reason naming the version, the
// connection closes with a protocol error, and no session opens.
func TestServerRejectsPreV4Hello(t *testing.T) {
	factory, _ := offloadWorld(t)
	for _, v := range []byte{2, 3} {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			srv := newTestServer(t, ServerConfig{Factory: factory})
			c1, c2 := net.Pipe()
			t.Cleanup(func() { _ = c1.Close() })
			done := make(chan error, 1)
			go func() { done <- srv.Serve(c2) }()

			h := &Hello{Version: v, StartX: 2, StartY: 2, ClientID: "old-phone"}
			if _, err := WriteFrame(c1, MsgHello, EncodeHello(h)); err != nil {
				t.Fatal(err)
			}
			typ, payload, err := ReadFrame(c1)
			if err != nil || typ != MsgWelcome {
				t.Fatalf("welcome read: %v %v", typ, err)
			}
			w, err := DecodeWelcome(payload)
			if err != nil {
				t.Fatal(err)
			}
			wantReason := fmt.Sprintf("unsupported protocol v%d (need v4+)", v)
			if w.OK || w.Reason != wantReason {
				t.Fatalf("welcome = %+v, want OK=false reason %q", w, wantReason)
			}
			select {
			case err := <-done:
				if !errors.Is(err, ErrProtocol) {
					t.Fatalf("server exit = %v, want ErrProtocol", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("server kept the connection after a pre-v4 hello")
			}
			if st := srv.Stats(); st.Opened != 0 || st.Active != 0 {
				t.Fatalf("pre-v4 hello opened a session: opened=%d active=%d", st.Opened, st.Active)
			}
			// Nor can a server be capped below the floor.
			if _, err := NewServer(ServerConfig{Factory: factory, MaxProtocol: v}); err == nil {
				t.Fatalf("NewServer accepted MaxProtocol v%d", v)
			}
		})
	}
}
