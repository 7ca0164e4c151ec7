package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/mapstore"
	"repro/internal/offload"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// Deployed defaults of cmd/uniloc-server and cmd/uniloc-router that the
// stacks below reproduce.
const (
	serverSeed   = 42  // -seed: training and campus survey
	rebuildBatch = 256 // -rebuild-batch
	idleTimeout  = 2 * time.Minute
	epochTimeout = 30 * time.Second
	rebuildEvery = 30 * time.Second
	healthEvery  = 2 * time.Second

	// churnRebuildBatch makes churn's stores compact every 64
	// re-surveyed points, so snapshot swaps come several times a second.
	churnRebuildBatch = 64
)

// seedSlot hands each session the seed of the walk that opens it. A
// lane holds mu across its Hello, so the factory — which runs inside
// that handshake on a server goroutine — reads the seed its own walk
// stored, whichever lane reaches the server first. Handing seeds out in
// session-open order instead would let the lanes' race decide which
// walk gets which particle-filter stream.
type seedSlot struct {
	mu   sync.Mutex
	seed atomic.Int64
}

// shipMeter wraps the ShipSession hook around cluster.Handoff.Ship.
type shipMeter struct {
	mu    sync.Mutex
	bytes int64   // session-state bytes shipped
	durNS []int64 // duration of each Ship call
}

func (m *shipMeter) wrap(ho *cluster.Handoff) func(string, uint32, []byte) {
	return func(id string, seq uint32, state []byte) {
		t0 := time.Now()
		ho.Ship(id, seq, state)
		d := time.Since(t0)
		m.mu.Lock()
		m.bytes += int64(len(state))
		m.durNS = append(m.durNS, int64(d))
		m.mu.Unlock()
	}
}

// take returns what was recorded since the last take and starts afresh.
func (m *shipMeter) take() (bytes int64, durNS []int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	bytes, durNS = m.bytes, m.durNS
	m.bytes, m.durNS = 0, nil
	return bytes, durNS
}

// node is one offload server with its own map stores, shared-compute
// cache and metrics registry.
type node struct {
	srv    *offload.Server
	reg    *telemetry.Registry
	stores map[byte]*mapstore.Store
	ho     *cluster.Handoff
}

// tracing is what a traced stack records into: the span tracer shared
// by clients and servers, and the epoch observer attached to every
// session's framework.
type tracing struct {
	tracer *trace.Tracer
	spans  *spanSink
	epochs *epochSink
}

// stack is one deployment under test, assembled from the program's
// public APIs the way cmd/uniloc-server and cmd/uniloc-router assemble
// it.
type stack struct {
	addr      string // where lanes dial: the server, or the router
	seeds     *seedSlot
	nodes     []*node
	routerReg *telemetry.Registry // nil without a router
	ship      *shipMeter          // nil without a handoff mesh
	tr        *tracing            // nil when untraced
	connErrs  atomic.Int64        // serving errors reported by any listener

	// stops holds the shutdown steps per stage; close runs the stages
	// in order and each stage's steps in reverse. Handoff listeners wait
	// for their peers' shipping connections, so every mesh is closed
	// (stageMesh) before any of them is waited for (stageLast).
	stops [4][]func()
}

const (
	stageRouter = iota
	stageServers
	stageMesh
	stageLast
)

// build trains the error models, surveys the campus and starts the
// workload's serving stack. Everything it does counts as set-up time.
func build(wl workload, tr *tracing) (*stack, error) {
	trained, err := eval.Train(serverSeed)
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	campus := scenario.NewAssets(scenario.Campus(), serverSeed+100)
	st := &stack{seeds: &seedSlot{}, tr: tr}
	nNodes := 1
	if wl.cluster {
		nNodes = 2
		st.ship = &shipMeter{}
	}
	var hoAddrs []string
	var hoLns []net.Listener
	if wl.cluster {
		for i := 0; i < nNodes; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				st.close()
				return nil, fmt.Errorf("handoff listener: %w", err)
			}
			st.stops[stageMesh] = append(st.stops[stageMesh], func() { _ = ln.Close() })
			hoLns = append(hoLns, ln)
			hoAddrs = append(hoAddrs, ln.Addr().String())
		}
	}
	var backends []string
	for i := 0; i < nNodes; i++ {
		n := &node{reg: telemetry.NewRegistry()}
		storeCfg := func(name string) mapstore.Config {
			cfg := mapstore.Config{Name: name, RebuildBatch: rebuildBatch, RebuildEvery: rebuildEvery, Metrics: mapstore.NewMetrics(n.reg, name)}
			if wl.surveys {
				cfg.RebuildBatch = churnRebuildBatch
			}
			return cfg
		}
		wifi := mapstore.New(campus.WiFiDB, storeCfg("wifi"))
		cell := mapstore.New(campus.CellDB, storeCfg("cellular"))
		st.stops[stageLast] = append(st.stops[stageLast], wifi.Close, cell.Close)
		n.stores = map[byte]*mapstore.Store{offload.MapWiFi: wifi, offload.MapCellular: cell}

		seeds := st.seeds
		factory := func() (*core.Framework, error) {
			ss := campus.SchemesOver(wifi, cell, rand.New(rand.NewSource(seeds.seed.Load())))
			var opts []core.Option
			if tr != nil {
				opts = append(opts, core.WithObserver(tr.epochs))
			}
			return core.NewFramework(ss, trained.Models, opts...)
		}
		cfg := offload.ServerConfig{
			Factory:       factory,
			IdleTimeout:   idleTimeout,
			EpochTimeout:  epochTimeout,
			Metrics:       n.reg,
			BatchStores:   n.stores,
			SharedCompute: true,
		}
		if wl.surveys {
			cfg.MapStores = n.stores
		}
		if tr != nil {
			cfg.Tracer = tr.tracer
		}
		if wl.cluster {
			var peers []string
			for j, a := range hoAddrs {
				if j != i {
					peers = append(peers, a)
				}
			}
			n.ho = cluster.NewHandoff(cluster.HandoffConfig{Peers: peers, Metrics: n.reg})
			st.stops[stageMesh] = append(st.stops[stageMesh], n.ho.Close)
			st.serve(stageMesh, stageLast, hoLns[i], n.ho.ListenAndServe)
			cfg.ShipSession = st.ship.wrap(n.ho)
			cfg.FetchSession = n.ho.Fetch
		}
		n.srv, err = offload.NewServer(cfg)
		if err != nil {
			st.close()
			return nil, err
		}
		st.stops[stageServers] = append(st.stops[stageServers], n.srv.Close)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, fmt.Errorf("listener: %w", err)
		}
		st.serve(stageServers, stageServers, ln, n.srv.ListenAndServe)
		backends = append(backends, ln.Addr().String())
		st.nodes = append(st.nodes, n)
	}
	st.addr = backends[0]
	if wl.cluster {
		st.routerReg = telemetry.NewRegistry()
		router, err := cluster.NewRouter(cluster.RouterConfig{Backends: backends, HealthEvery: healthEvery, Metrics: st.routerReg})
		if err != nil {
			st.close()
			return nil, err
		}
		st.stops[stageRouter] = append(st.stops[stageRouter], router.Close)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, fmt.Errorf("router listener: %w", err)
		}
		st.serve(stageRouter, stageRouter, ln, router.ListenAndServe)
		st.addr = ln.Addr().String()
	}
	return st, nil
}

// serve runs a ListenAndServe loop until close shuts its listener in
// stage closeAt, and makes close wait for the loop to return in stage
// waitAt.
func (st *stack) serve(closeAt, waitAt int, ln net.Listener, las func(net.Listener, func(error))) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		las(ln, func(error) { st.connErrs.Add(1) })
	}()
	st.stops[waitAt] = append(st.stops[waitAt], func() { <-done })
	st.stops[closeAt] = append(st.stops[closeAt], func() { _ = ln.Close() })
}

func (st *stack) close() {
	for stage := range st.stops {
		for i := len(st.stops[stage]) - 1; i >= 0; i-- {
			st.stops[stage][i]()
		}
		st.stops[stage] = nil
	}
}

func (st *stack) dial() (net.Conn, error) { return net.Dial("tcp", st.addr) }
