package topology

import (
	"encoding/json"
	"fmt"
	"io"

	"clustercast/internal/geom"
)

// snapshot is the JSON wire form of a Network. Edges are derivable from
// positions and radius, so only the generators' inputs are stored; Load
// rebuilds the unit disk graph, which also validates the invariant that
// the graph is a pure function of geometry.
type snapshot struct {
	Version   int          `json:"version"`
	Bounds    geom.Rect    `json:"bounds"`
	Radius    float64      `json:"radius"`
	Positions []geom.Point `json:"positions"`
}

// snapshotVersion guards the on-disk format.
const snapshotVersion = 1

// Save writes the network to w as JSON.
func (nw *Network) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(snapshot{
		Version:   snapshotVersion,
		Bounds:    nw.Bounds,
		Radius:    nw.Radius,
		Positions: nw.Positions,
	})
}

// Load reads a network saved by Save and rebuilds its unit disk graph.
func Load(r io.Reader) (*Network, error) {
	var s snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("topology: decoding snapshot: %w", err)
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("topology: unsupported snapshot version %d", s.Version)
	}
	if s.Radius <= 0 {
		return nil, fmt.Errorf("topology: snapshot radius %g must be positive", s.Radius)
	}
	// Edges are decided on squared distances: outside this range the
	// radius squared overflows or underflows, and pairs farther apart than
	// the radius would become edges.
	if s.Radius < 1e-150 || s.Radius > 1e150 {
		return nil, fmt.Errorf("topology: snapshot radius %g outside [1e-150, 1e150]", s.Radius)
	}
	if s.Bounds.Area() <= 0 {
		return nil, fmt.Errorf("topology: snapshot bounds have non-positive area")
	}
	for i, p := range s.Positions {
		if !s.Bounds.Contains(p) {
			return nil, fmt.Errorf("topology: snapshot node %d at %v outside bounds", i, p)
		}
	}
	return NewWorkspace().fromPositions(s.Positions, s.Bounds, s.Radius)
}
