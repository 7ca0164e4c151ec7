package offload

import (
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/mapstore"
	"repro/internal/rf"
	"repro/internal/sensing"
	"repro/internal/telemetry"
)

// TestBatchedServerMatchesUnbatched is the scheduler's end-to-end
// bit-identity proof at the wire level: N concurrent clients against a
// batch-per-tick server produce exactly the Results the same walks get
// from isolated, unbatched sessions — including across a crowdsourced
// compaction that swaps the shared snapshot version at a fixed epoch
// boundary mid-run. Run under -race in CI: the scheduler's fan-in,
// cache hand-off, and fan-out all execute concurrently here.
func TestBatchedServerMatchesUnbatched(t *testing.T) {
	const nClients = 4
	const epochs = 16
	const swapAt = 8 // map v1 for epochs [0,8), v2 for [8,16)

	survey := fingerprint.Fingerprint{
		Pos: geo.Pt(12, 2),
		Vec: rf.Vector{{ID: "a0", RSSI: -52}, {ID: "a1", RSSI: -58}},
	}

	// Reference: the same walks through plain per-session stepping,
	// with the identical survey+rebuild at the identical boundary.
	refFactory, rw, refStore := sharedStoreWorld(t, telemetry.NewRegistry())
	starts := make([]geo.Point, nClients)
	walks := make([][]*sensing.Snapshot, nClients)
	for i := range walks {
		starts[i], walks[i] = corridorWalk(rw, 1+float64(i)*0.7, int64(40+i), epochs)
	}
	refSrv := newTestServer(t, ServerConfig{Factory: refFactory})
	refClients := make([]*Client, nClients)
	want := make([][]*Result, nClients)
	for i := range refClients {
		refClients[i] = pipeClient(t, refSrv)
		if err := refClients[i].Hello(starts[i]); err != nil {
			t.Fatalf("ref hello %d: %v", i, err)
		}
		want[i] = make([]*Result, epochs)
	}
	refPhase := func(lo, hi int) {
		for i, c := range refClients {
			for k := lo; k < hi; k++ {
				res, err := c.Localize(walks[i][k])
				if err != nil {
					t.Fatalf("ref client %d epoch %d: %v", i, k, err)
				}
				want[i][k] = res
			}
		}
	}
	refPhase(0, swapAt)
	if err := refStore.Submit(survey); err != nil {
		t.Fatal(err)
	}
	refStore.Rebuild()
	refPhase(swapAt, epochs)

	// Batched: an identically-built world and store (sharedStoreWorld
	// is deterministic), all clients walking concurrently so batches
	// actually form.
	batFactory, _, batStore := sharedStoreWorld(t, telemetry.NewRegistry())
	srv := newTestServer(t, ServerConfig{
		Factory:      batFactory,
		BatchTick:    500 * time.Microsecond,
		BatchWorkers: 4,
		BatchStores:  map[byte]*mapstore.Store{MapWiFi: batStore},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ListenAndServe(ln, nil)
	t.Cleanup(func() { _ = ln.Close() })

	clients := make([]*Client, nClients)
	for i := range clients {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		clients[i] = NewClient(conn, fmt.Sprintf("phone-batch-%d", i))
		clients[i].SetTimeout(5 * time.Second)
		if err := clients[i].Hello(starts[i]); err != nil {
			t.Fatalf("hello %d: %v", i, err)
		}
	}
	got := make([][]*Result, nClients)
	for i := range got {
		got[i] = make([]*Result, epochs)
	}
	phase := func(lo, hi int) {
		var wg sync.WaitGroup
		errs := make(chan error, nClients)
		for i := range clients {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for k := lo; k < hi; k++ {
					res, err := clients[i].Localize(walks[i][k])
					if err != nil {
						errs <- fmt.Errorf("client %d epoch %d: %w", i, k, err)
						return
					}
					got[i][k] = res
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	phase(0, swapAt)
	if err := batStore.Submit(survey); err != nil {
		t.Fatal(err)
	}
	batStore.Rebuild()
	phase(swapAt, epochs)

	for i := range want {
		for k := range want[i] {
			if *got[i][k] != *want[i][k] {
				t.Errorf("client %d epoch %d: batched %+v != unbatched %+v", i, k, got[i][k], want[i][k])
			}
		}
	}

	// The scheduler accounts a batch after answering all of its epochs,
	// so the last batch's count can land just after its results do.
	st := srv.Stats()
	for deadline := time.Now().Add(2 * time.Second); st.BatchedEpochs < int64(nClients*epochs) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		st = srv.Stats()
	}
	if st.Batches == 0 {
		t.Error("scheduler ran no batches — the batched path was never exercised")
	}
	if st.BatchedEpochs != int64(nClients*epochs) {
		t.Errorf("BatchedEpochs = %d, want %d (every epoch must go through the scheduler)",
			st.BatchedEpochs, nClients*epochs)
	}
}

// TestWalkSurvivesFaultyLinkBatched is the chaos variant of
// TestWalkSurvivesFaultyLink with the batch scheduler on: drops,
// truncations and corruption under reconnect must not wedge the batch
// loop or leak a non-finite result, and v4 reconnects resume the
// parked session rather than double-stepping it.
func TestWalkSurvivesFaultyLinkBatched(t *testing.T) {
	reg := telemetry.NewRegistry()
	factory, w, store := sharedStoreWorld(t, reg)
	cfg := ServerConfig{
		Factory:      factory,
		EpochTimeout: 2 * time.Second,
		BatchTick:    300 * time.Microsecond,
		BatchStores:  map[byte]*mapstore.Store{MapWiFi: store},
	}
	start, snaps := corridorWalk(w, 2, 3, 40)

	ls := startLiveServer(t, "127.0.0.1:0", cfg)
	defer func() { ls.kill() }()
	addr := ls.ln.Addr().String()

	var dialSeq int64
	dial := func() (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		dialSeq++
		return faultinject.WrapConn(conn, faultinject.ConnConfig{
			Seed: 300 + dialSeq, DropProb: 0.01, TruncateProb: 0.01, CorruptProb: 0.01,
		}), nil
	}
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(conn, "phone-chaos-batched")
	client.SetTimeout(time.Second)
	client.SetReconnect(dial, Backoff{Min: 2 * time.Millisecond, Max: 50 * time.Millisecond, Attempts: 25, Seed: 11})
	defer func() { _ = client.Close() }()

	if err := client.Hello(start); err != nil {
		t.Fatalf("hello: %v", err)
	}
	for i, snap := range snaps {
		res, err := client.Localize(snap)
		if err != nil {
			t.Fatalf("epoch %d died despite reconnect: %v", i, err)
		}
		if math.IsNaN(res.X) || math.IsNaN(res.Y) || math.IsInf(res.X, 0) || math.IsInf(res.Y, 0) {
			t.Fatalf("epoch %d: non-finite result through faulty link", i)
		}
	}
	if client.Epochs() != len(snaps) {
		t.Errorf("epochs = %d, want %d", client.Epochs(), len(snaps))
	}
}
