package cluster

import (
	"bytes"
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

// Forward is one sub-batch received from the ingest front, ready for the
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
	// Engine is the node's local engine, the target of received forwards
	// and the local leg of scatter-gather reads.
	Engine *engine.Engine
	// GatherParams re-detects gatherings when the cross-node merge fuses
	// crowd fragments; use the same thresholds as the engine pipeline.
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

// Node is one member's runtime: the server side of the data plane (accept
// forwards into an inbox, answer local-state reads) plus the client side
// (route and forward sub-batches to owners, scatter-gather queries across
// the membership).
type Node struct {
	cfg      NodeConfig
	selfIdx  int
	peers    []*rpc.Peer // parallel to Map.Nodes; nil at selfIdx
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
		selfIdx:  selfIdx,
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

// Route cuts one ingest batch into per-node sub-batches, enqueues every
// remote sub-batch for ordered forwarding to its owner, and returns the
// local sub-batch for the caller (the front's own ingest loop) to apply.
// Only the ingest front calls Route; the single-dispatcher contract of
// the peers is its single ingest goroutine.
func (n *Node) Route(seq uint64, batch *trajectory.DB) *trajectory.DB {
	subs := n.cfg.Map.RouteBatch(batch)
	for i, sub := range subs {
		if i == n.selfIdx {
			continue
		}
		n.peers[i].Forward(seq, wal.EncodePayload(nil, seq, sub))
	}
	return subs[n.selfIdx]
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
// rpc.ForwardPath). It answers 204 for accepted sub-batches — duplicates
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

// HandleLocal is the read side of the scatter-gather plane (GET
// rpc.LocalPath): the node's full, unfiltered local crowd set in the gob
// wire format. Unfiltered deliberately — the coordinator must merge
// before filtering so a canonical copy can absorb halo duplicates even
// when the filter would drop it. A quarantined engine answers 503, so the
// coordinator counts the node unreachable instead of merging an empty set.
func (n *Node) HandleLocal(w http.ResponseWriter, r *http.Request) {
	if !n.versionOK(r) {
		http.Error(w, fmt.Sprintf("membership-map version mismatch (local %d)", n.cfg.Map.Version), http.StatusConflict)
		return
	}
	res := n.cfg.Engine.Snapshot(engine.Query{})
	if n.cfg.Engine.Quarantined() {
		http.Error(w, engine.ErrQuarantined.Error(), http.StatusServiceUnavailable)
		return
	}
	set := rpc.CrowdSet{Ticks: res.Ticks}
	for i, cr := range res.Crowds {
		set.Entries = append(set.Entries, rpc.CrowdEntry{Crowd: cr, Gatherings: res.Gatherings[i]})
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := rpc.EncodeCrowdSet(w, set); err != nil && n.cfg.Logf != nil {
		n.cfg.Logf("cluster: encoding local state: %v", err)
	}
}

// PartialMeta qualifies a scatter-gather answer.
type PartialMeta struct {
	// Unreachable lists the members whose state is missing from the
	// answer (request failed or breaker open). Empty means complete.
	Unreachable []NodeID
	// Ticks is the minimum ingested tick frontier across the members
	// that did answer — the staleness bound of the result.
	Ticks int
}

// Query runs one scatter-gather snapshot query: fan the local-state read
// across the membership (self included, read directly), merge the answers
// (merge.go), then filter and truncate exactly as a single store would. A
// dead, slow, quarantined or breaker-open peer degrades the answer to a
// partial result — its ID listed in PartialMeta.Unreachable — and never
// fails the query.
func (n *Node) Query(ctx context.Context, q engine.Query) (*engine.Result, PartialMeta) {
	type answer struct {
		node int
		set  rpc.CrowdSet
		err  error
	}
	answers := make(chan answer, len(n.peers)) // every sender can finish
	fanned := 0
	for i, p := range n.peers {
		if p == nil {
			continue
		}
		fanned++
		go func(i int, p *rpc.Peer) {
			body, err := p.Get(ctx, rpc.LocalPath)
			if err != nil {
				answers <- answer{node: i, err: err}
				return
			}
			set, err := rpc.DecodeCrowdSet(bytes.NewReader(body))
			answers <- answer{node: i, set: set, err: err}
		}(i, p)
	}

	local := n.cfg.Engine.Snapshot(engine.Query{})
	var entries []entry
	for i, cr := range local.Crowds {
		entries = append(entries, entry{node: n.selfIdx, crowd: cr, gathers: local.Gatherings[i]})
	}
	minTicks := local.Ticks

	var meta PartialMeta
	for ; fanned > 0; fanned-- {
		a := <-answers
		if a.err != nil {
			meta.Unreachable = append(meta.Unreachable, n.cfg.Map.Nodes[a.node].ID)
			n.counters.PeersUnreachable.Add(1)
			if n.cfg.Logf != nil {
				n.cfg.Logf("cluster: query: %v", a.err)
			}
			continue
		}
		if a.set.Ticks < minTicks {
			minTicks = a.set.Ticks
		}
		for _, en := range a.set.Entries {
			entries = append(entries, entry{node: a.node, crowd: en.Crowd, gathers: en.Gatherings})
		}
	}
	if len(meta.Unreachable) > 0 {
		n.counters.QueriesPartial.Add(1)
	}

	merged := merge(entries, n.cfg.Map.OwnerIndex, n.cfg.GatherParams)
	res := &engine.Result{Ticks: minTicks}
	meta.Ticks = minTicks
	for _, en := range merged {
		if q.GatheringsOnly && len(en.gathers) == 0 {
			continue
		}
		if !q.Matches(en.crowd) {
			continue
		}
		res.Crowds = append(res.Crowds, en.crowd)
		res.Gatherings = append(res.Gatherings, en.gathers)
		if q.Limit > 0 && len(res.Crowds) == q.Limit {
			break
		}
	}
	return res, meta
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
