// Package cluster runs gatherserve as a group of replicas: a static,
// versioned node list, and a per-node runtime that forwards every ingest
// batch whole to every peer over the data plane (internal/cluster/rpc).
//
// Each node runs the same deterministic admit → WAL → engine pipeline on
// the whole feed, so each node's state is the single-store answer
// (state-machine replication). Reads are local: any node answers from
// its own engine, and X-Gather-Ticks, that engine's frontier, is the
// staleness bound. Extra nodes buy availability and read capacity, not
// ingest throughput.
//
// The map is versioned: every data-plane request carries the sender's map
// version and a receiver with a different version refuses it, so a cluster
// rolling between maps fails loudly instead of mixing two memberships.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
)

// NodeID names one member of the cluster.
type NodeID string

// Member is one membership entry: a process and its data-plane address.
type Member struct {
	ID   NodeID `json:"id"`
	Addr string `json:"addr"`
	// Deprecated: replicas own no slots; Validate ignores this field, so
	// a map written for cell ownership still loads.
	Slots []int `json:"slots,omitempty"`
}

// Map is the static membership configuration, loaded from JSON by every
// node of a cluster. All nodes of one cluster must run the identical map
// (compared by Version).
type Map struct {
	// Version identifies this membership; nodes reject data-plane
	// requests carrying a different version.
	Version int `json:"version"`
	// Deprecated: replicas own no cells; Validate ignores CellSize, Halo
	// and Slots, so a map written for cell ownership still loads.
	CellSize float64 `json:"cellSize,omitempty"`
	// Deprecated: ignored, like CellSize.
	Halo float64 `json:"halo,omitempty"`
	// Deprecated: ignored, like CellSize.
	Slots int `json:"slots,omitempty"`
	// Nodes are the members, in a fixed order shared by every node.
	Nodes []Member `json:"nodes"`
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

// Validate checks the map invariants: a positive version and at least
// one node, each with a unique id and an address. LoadMap and ParseMap
// call it for you.
func (m *Map) Validate() error {
	if m.Version < 1 {
		return fmt.Errorf("cluster: map version must be ≥ 1, got %d", m.Version)
	}
	if len(m.Nodes) == 0 {
		return fmt.Errorf("cluster: map has no nodes")
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
	}
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
