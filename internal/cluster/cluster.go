// Package cluster scales gatherserve past one process: a static
// node-membership and cell-ownership map, a per-node runtime that routes
// each ingest batch's sub-batches to their owner nodes over the forwarding
// data plane (internal/cluster/rpc), and a scatter-gather read path that
// fans snapshot queries across the membership and reduces the answers with
// a cross-node merge (merge.go) — degrading to a partial result instead of
// an error when a peer is dead, slow, quarantined or breaker-open.
//
// Ownership is by grid cell at node granularity. Space is cut into CellSize×CellSize cells; a cell hashes to
// one of Slots ownership slots, and the map assigns every slot to exactly
// one node. An object is ingested by the node owning the cell of its
// position at the batch start, and — with a positive Halo — replicated to
// every node owning a cell within Halo of any of its positions during the
// batch, so each node sees the complete neighbourhood of its own cells and
// the read-side merge can collapse the duplicate boundary discoveries.
//
// The map is versioned: every data-plane request carries the sender's map
// version and a receiver with a different version refuses it, so a cluster
// rolling between ownership maps fails loudly instead of silently routing
// batches to wrong owners.
package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/geo"
	"repro/internal/trajectory"
)

// NodeID names one member of the cluster.
type NodeID string

// Member is one membership entry: a process, its data-plane address, and
// the ownership slots it serves.
type Member struct {
	ID   NodeID `json:"id"`
	Addr string `json:"addr"`
	// Slots are the ownership slots this node owns. Across the map every
	// slot in [0, Map.Slots) must appear exactly once.
	Slots []int `json:"slots"`
}

// Map is the static membership and cell-ownership configuration, loaded
// from JSON by every node of a cluster. All nodes of one cluster must run
// the identical map (compared by Version).
type Map struct {
	// Version identifies this ownership assignment; nodes reject
	// data-plane requests carrying a different version.
	Version int `json:"version"`
	// CellSize is the ownership cell side in metres, the node-granularity
	// analogue of the engine partitioner's cell (a few × the expected
	// gathering diameter).
	CellSize float64 `json:"cellSize"`
	// Halo is the cross-node replication margin in metres. Objects within
	// Halo of a cell owned by another node are forwarded there too, so
	// groups straddling node boundaries are discovered whole on each side
	// and deduplicated by the scatter-gather merge. Zero disables
	// replication (lossy at node boundaries, like a zero-halo partitioner).
	Halo float64 `json:"halo"`
	// Slots is the number of ownership slots cells hash onto. More slots
	// than nodes lets ownership move in small pieces when the map is
	// re-cut.
	Slots int `json:"slots"`
	// Nodes are the members. Order is significant: a node's position here
	// is its index in every routing and merge structure.
	Nodes []Member `json:"nodes"`

	// slotOwner[s] is the index in Nodes owning slot s, built by Validate.
	slotOwner []int
}

// LoadMap reads and validates a membership map from a JSON file.
func LoadMap(path string) (*Map, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := ParseMap(data)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", path, err)
	}
	return m, nil
}

// ParseMap decodes and validates a membership map from JSON bytes.
func ParseMap(data []byte) (*Map, error) {
	var m Map
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("cluster: parsing membership map: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Validate checks the map invariants and builds the slot-ownership index.
// Call it once after constructing a Map by hand; LoadMap and ParseMap call
// it for you.
func (m *Map) Validate() error {
	if m.Version < 1 {
		return fmt.Errorf("cluster: map version must be ≥ 1, got %d", m.Version)
	}
	if m.CellSize <= 0 {
		return fmt.Errorf("cluster: cellSize must be > 0, got %v", m.CellSize)
	}
	if m.Halo < 0 {
		return fmt.Errorf("cluster: halo must be ≥ 0, got %v", m.Halo)
	}
	if m.Slots < 1 {
		return fmt.Errorf("cluster: slots must be ≥ 1, got %d", m.Slots)
	}
	if len(m.Nodes) == 0 {
		return fmt.Errorf("cluster: map has no nodes")
	}
	// Every slot is owned exactly once, so the nodes list Slots entries
	// in all. Checking that first bounds the owner table by the map's own
	// size: a hostile "slots" cannot make it allocate.
	entries := 0
	for _, n := range m.Nodes {
		entries += len(n.Slots)
	}
	if entries != m.Slots {
		return fmt.Errorf("cluster: slots is %d but the nodes list %d slot entries", m.Slots, entries)
	}
	owner := make([]int, m.Slots)
	for i := range owner {
		owner[i] = -1
	}
	seen := make(map[NodeID]bool, len(m.Nodes))
	for ni, n := range m.Nodes {
		if n.ID == "" {
			return fmt.Errorf("cluster: node %d has no id", ni)
		}
		if seen[n.ID] {
			return fmt.Errorf("cluster: duplicate node id %q", n.ID)
		}
		seen[n.ID] = true
		if n.Addr == "" {
			return fmt.Errorf("cluster: node %q has no addr", n.ID)
		}
		for _, s := range n.Slots {
			if s < 0 || s >= m.Slots {
				return fmt.Errorf("cluster: node %q owns slot %d outside [0, %d)", n.ID, s, m.Slots)
			}
			if owner[s] >= 0 {
				return fmt.Errorf("cluster: slot %d owned by both %q and %q", s, m.Nodes[owner[s]].ID, n.ID)
			}
			owner[s] = ni
		}
	}
	for s, ni := range owner {
		if ni < 0 {
			return fmt.Errorf("cluster: slot %d owned by no node", s)
		}
	}
	m.slotOwner = owner
	return nil
}

// Index returns the position of id in Nodes, or -1 when absent.
func (m *Map) Index(id NodeID) int {
	for i, n := range m.Nodes {
		if n.ID == id {
			return i
		}
	}
	return -1
}

// splitmix is the splitmix64 finaliser, which spreads cell→slot routing
// evenly.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ownerOfCell returns the node index owning cell (cx, cy).
func (m *Map) ownerOfCell(cx, cy int64) int {
	h := splitmix(splitmix(uint64(cx)) ^ uint64(cy))
	return m.slotOwner[h%uint64(m.Slots)]
}

// cellOf returns the ownership cell containing p.
func (m *Map) cellOf(p geo.Point) (int64, int64) {
	return int64(math.Floor(p.X / m.CellSize)), int64(math.Floor(p.Y / m.CellSize))
}

// OwnerIndex returns the index of the node owning the cell containing p —
// the canonical-owner rule the scatter-gather merge uses to pick which
// node keeps a crowd discovered by several.
func (m *Map) OwnerIndex(p geo.Point) int {
	cx, cy := m.cellOf(p)
	return m.ownerOfCell(cx, cy)
}

// homeNode routes one trajectory to its owning node: the cell of its
// position at the batch start, falling back to the first sample and then
// to an ID hash for trajectories with no usable position.
func (m *Map) homeNode(tr *trajectory.Trajectory, domain trajectory.TimeDomain) int {
	p, ok := tr.LocationAt(domain.Start)
	if !ok {
		if len(tr.Samples) == 0 {
			return int(splitmix(uint64(tr.ID)) % uint64(len(m.Nodes)))
		}
		p = tr.Samples[0].P
	}
	return m.OwnerIndex(p)
}

// appendHaloNodes appends (deduped) the owner of every cell whose region
// lies within Halo of the rectangle, stopping once every node is targeted.
func (m *Map) appendHaloNodes(dst []int, r geo.Rect) []int {
	n := len(m.Nodes)
	x0 := int64(math.Floor((r.MinX - m.Halo) / m.CellSize))
	x1 := int64(math.Floor((r.MaxX + m.Halo) / m.CellSize))
	y0 := int64(math.Floor((r.MinY - m.Halo) / m.CellSize))
	y1 := int64(math.Floor((r.MaxY + m.Halo) / m.CellSize))
	for cx := x0; cx <= x1; cx++ {
		for cy := y0; cy <= y1; cy++ {
			o := m.ownerOfCell(cx, cy)
			seen := false
			for _, have := range dst {
				if have == o {
					seen = true
					break
				}
			}
			if !seen {
				dst = append(dst, o)
				if len(dst) == n {
					return dst
				}
			}
		}
	}
	return dst
}

// RouteBatch cuts one ingest batch into per-node sub-batches: every node
// gets a sub-batch carrying the batch's tick domain — possibly with no
// trajectories, because each node's engine must still advance its domain
// by the batch's ticks so the cluster's tick frontiers stay aligned — and
// with a positive Halo a trajectory near a node boundary is copied into
// each adjacent owner's sub-batch (the cross-node replicas the read-side
// merge collapses again).
func (m *Map) RouteBatch(batch *trajectory.DB) []*trajectory.DB {
	n := len(m.Nodes)
	subs := make([]*trajectory.DB, n)
	for i := range subs {
		subs[i] = &trajectory.DB{Domain: batch.Domain}
	}
	targets := make([]int, 0, n)
	for i := range batch.Trajs {
		tr := &batch.Trajs[i]
		targets = append(targets[:0], m.homeNode(tr, batch.Domain))
		if m.Halo > 0 && n > 1 {
			for t := 0; t < batch.Domain.N && len(targets) < n; t++ {
				p, ok := tr.LocationAt(batch.Domain.TimeOf(trajectory.Tick(t)))
				if !ok {
					continue
				}
				targets = m.appendHaloNodes(targets, geo.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
			}
		}
		for _, o := range targets {
			subs[o].Trajs = append(subs[o].Trajs, *tr)
		}
	}
	return subs
}
