package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster/rpc"
	"repro/internal/engine"
	"repro/internal/gathering"
	"repro/internal/stats"
	"repro/internal/trajectory"
	"repro/internal/wal"
)

// Forward is one batch received from the ingest front, ready for the
// node's admit→WAL→engine pipeline.
type Forward struct {
	Seq   uint64
	Batch *trajectory.DB
}

// NodeConfig configures one node runtime.
type NodeConfig struct {
	// Map is the validated membership map; Self must name one of its nodes.
	Map  *Map
	Self NodeID
	// Engine is the node's own engine, which the deprecated Query reads.
	Engine *engine.Engine
	// Deprecated: replicas merge nothing, so nothing reads GatherParams.
	GatherParams gathering.Params
	// Counters receives the cluster data-plane counts (shared with the
	// peers); nil counts into a private sink.
	Counters *stats.ClusterCounters
	// Ready gates the receive path: forwards are refused with 503 (and
	// retried by the sender) until it returns true — a node mid-recovery
	// must not accept new batches before its WAL replay decides the
	// admission frontier. Nil means always ready.
	Ready func() bool
	// InboxDepth is the received-forward queue capacity (default 64). A
	// full inbox answers 503: backpressure travels to the front's retry
	// loop instead of buffering without bound.
	InboxDepth int
	// Knobs passed through to every peer (see rpc.PeerConfig).
	AttemptTimeout   time.Duration
	ForwardDeadline  time.Duration
	BreakerThreshold int
	BreakerCooldown  time.Duration
	Seed             int64
	Logf             func(format string, args ...any)
}

// Node is one member's runtime: the server side of the data plane
// (accept forwards into an inbox) plus the client side (forward every
// batch to every peer).
type Node struct {
	cfg      NodeConfig
	peers    []*rpc.Peer // parallel to Map.Nodes; nil at Self
	counters *stats.ClusterCounters
	in       chan Forward

	// The (producer, seq) idempotency contract needs one producer per
	// run: the first forwarder claims the slot, any other is refused.
	// mu guards producer.
	mu sync.Mutex

	producer string
}

// NewNode builds the runtime and starts one forwarder goroutine per peer.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Map == nil {
		return nil, fmt.Errorf("cluster: node needs a membership map")
	}
	selfIdx := cfg.Map.Index(cfg.Self)
	if selfIdx < 0 {
		return nil, fmt.Errorf("cluster: node id %q not in the membership map", cfg.Self)
	}
	if cfg.Counters == nil {
		cfg.Counters = &stats.ClusterCounters{}
	}
	if cfg.InboxDepth <= 0 {
		cfg.InboxDepth = 64
	}
	if cfg.Ready == nil {
		cfg.Ready = func() bool { return true }
	}
	n := &Node{
		cfg:      cfg,
		peers:    make([]*rpc.Peer, len(cfg.Map.Nodes)),
		counters: cfg.Counters,
		in:       make(chan Forward, cfg.InboxDepth),
	}
	for i, member := range cfg.Map.Nodes {
		if i == selfIdx {
			continue
		}
		n.peers[i] = rpc.NewPeer(rpc.PeerConfig{
			ID:               string(member.ID),
			Addr:             member.Addr,
			Producer:         string(cfg.Self),
			MapVersion:       cfg.Map.Version,
			Counters:         cfg.Counters,
			BreakerThreshold: cfg.BreakerThreshold,
			BreakerCooldown:  cfg.BreakerCooldown,
			AttemptTimeout:   cfg.AttemptTimeout,
			ForwardDeadline:  cfg.ForwardDeadline,
			Seed:             cfg.Seed,
			Logf:             cfg.Logf,
		})
	}
	return n, nil
}

// Close drains and stops every peer's forward queue. The inbox is not
// closed — late HTTP forwards simply queue until the process exits.
func (n *Node) Close() {
	for _, p := range n.peers {
		if p != nil {
			p.Close()
		}
	}
}

// Inbox is the stream of accepted forwards; the node's single ingest
// goroutine consumes it and runs each item through admit→WAL→engine.
func (n *Node) Inbox() <-chan Forward { return n.in }

// Route encodes one ingest batch once as a WAL record payload, enqueues
// that payload for ordered forwarding to every peer, and returns the
// whole batch for the caller (the front's own ingest loop) to admit.
// Only the ingest front calls Route; the single-dispatcher contract of
// the peers is its single ingest goroutine.
func (n *Node) Route(seq uint64, batch *trajectory.DB) *trajectory.DB {
	payload := wal.EncodePayload(nil, seq, batch)
	for _, p := range n.peers {
		if p != nil {
			p.Forward(seq, payload)
		}
	}
	return batch
}

// claimProducer enforces the one-producer-per-run rule.
func (n *Node) claimProducer(p string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.producer == "" {
		n.producer = p
	}
	return n.producer == p
}

// versionOK checks the sender's membership-map version header. A missing
// header fails too: only a clusters-aware sender may use the data plane.
func (n *Node) versionOK(r *http.Request) bool {
	v, err := strconv.Atoi(r.Header.Get(rpc.HeaderMapVersion))
	return err == nil && v == n.cfg.Map.Version
}

// HandleForward is the receive side of the forwarding data plane (POST
// rpc.ForwardPath). It answers 204 for accepted batches — duplicates
// included, since the pipeline's admission stage classifies and drops
// them, which is exactly what makes sender retries idempotent — 409 for
// a map-version mismatch or a second producer (decisive: the sender must
// drop, not retry), 400 for an undecodable payload, and 503 while the
// node is recovering or the inbox is full (transient: the sender
// retries).
func (n *Node) HandleForward(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !n.versionOK(r) {
		n.counters.ForwardsRejected.Add(1)
		http.Error(w, fmt.Sprintf("membership-map version mismatch (local %d)", n.cfg.Map.Version), http.StatusConflict)
		return
	}
	if !n.claimProducer(r.Header.Get(rpc.HeaderProducer)) {
		n.counters.ForwardsRejected.Add(1)
		http.Error(w, "another producer already feeds this node", http.StatusConflict)
		return
	}
	if !n.cfg.Ready() {
		http.Error(w, "recovering", http.StatusServiceUnavailable)
		return
	}
	buf, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<30))
	if err != nil {
		n.counters.ForwardsRejected.Add(1)
		http.Error(w, fmt.Sprintf("reading body: %v", err), http.StatusBadRequest)
		return
	}
	seq, db, err := wal.DecodePayload(buf)
	if err != nil {
		n.counters.ForwardsRejected.Add(1)
		http.Error(w, fmt.Sprintf("bad payload: %v", err), http.StatusBadRequest)
		return
	}
	select {
	case n.in <- Forward{Seq: seq, Batch: db}:
		n.counters.ForwardsReceived.Add(1)
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "ingest backlog full", http.StatusServiceUnavailable)
	}
}

// HandleLocal answers 404: replicas serve no peer reads.
//
// Deprecated: reads are local, so nothing calls a peer's rpc.LocalPath.
func (n *Node) HandleLocal(w http.ResponseWriter, r *http.Request) { http.NotFound(w, r) }

// PartialMeta qualifies an answer of the deprecated Query.
//
// Deprecated: a replica's answer is never partial.
type PartialMeta struct {
	Unreachable []NodeID // always empty
	Ticks       int      // the node's tick frontier
}

// Query answers q from this node's own engine, with an empty Unreachable.
//
// Deprecated: read the engine's Snapshot; the node adds nothing to it.
func (n *Node) Query(_ context.Context, q engine.Query) (*engine.Result, PartialMeta) {
	res := n.cfg.Engine.Snapshot(q)
	return res, PartialMeta{Ticks: res.Ticks}
}

// BreakerStates reports each peer's circuit-breaker position, for /stats.
func (n *Node) BreakerStates() []string {
	out := make([]string, 0, len(n.peers))
	for i, p := range n.peers {
		if p == nil {
			continue
		}
		out = append(out, fmt.Sprintf("%s=%s", n.cfg.Map.Nodes[i].ID, p.State()))
	}
	return out
}

// Degraded reports whether any peer's breaker is not closed — the
// /healthz "degraded" signal.
func (n *Node) Degraded() bool {
	for _, p := range n.peers {
		if p != nil && p.State() != rpc.BreakerClosed {
			return true
		}
	}
	return false
}
