package experiment

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"clustercast/internal/stats"
)

// desRule keeps the figure bit-identity sweeps cheap but multi-replicate.
var desRule = stats.StopRule{Confidence: 0.95, RelHalfWidth: 0.5, MinReplicates: 12, MaxReplicates: 12}

// scalarCSVDigests pins the SHA-256 of each figure's CSV as the scalar
// engines produced it before the calendar engines replaced them (one
// worker, desRule, seed 19).
var scalarCSVDigests = map[string]string{
	"coll":      "2d7ef97e12f291697d3ac11cdf13df0e3c9f4a82e0bbc38a0f536b3766dbf548",
	"discovery": "910a8b4c1d349dc494a70df216be9d009535968cb33830fa53a98ebad333f67a",
	"faults":    "029b3a16bea39d50d3edafc3af777933b8e9c240e62c53b1104652c790db13eb",
	"fig8":      "0464ed081df2060fe84b8eef80c674260aabfafe4d1db7c4ef8c5f38327812cc",
	"gossip":    "114ea69270ffb79684eaeecf5c5ae11f4e30dbebf89a7b69dc5702e89f34da68",
	"lossy":     "ce97ce37f9181aae8b7cee7877363e503579ab2b32a07c4007a7c36b789bbc5c",
	"msg":       "936b8b473d2362f16aef5d787bf84c8f3d7506a6c8c6f0269d78dd1626a77069",
	"storm":     "20abf1a2f9d02ffb552e0f47614b31add2953f52f7bf5a6023354c86871f6472",
	"traffic":   "2690b42528c2fc77e865df90d397c73ed02c6b48a78c376f9148ac51e33e0a5c",
}

// TestDESFiguresBitIdentical is the figure-level gate of the engine
// swap: every figure whose estimators run an engine that changed — the
// slotted MAC (Collision), the multi-source MAC (Traffic, Discovery), the
// timed broadcast-storm suppressors (Storm), the construction wire
// protocol (MessageComplexity) — and the ideal-radio figures (Lossy,
// Fig8, gossip under loss, Faults) produce CSV bytes identical to the
// scalar engines' at any worker count.
func TestDESFiguresBitIdentical(t *testing.T) {
	figs := map[string]func() *Figure{
		"lossy":     func() *Figure { return Lossy([]float64{0, 0.25}, 25, 8, 19, desRule) },
		"gossip":    func() *Figure { return GossipAblation([]float64{0.5, 0.8}, []float64{0, 0.2}, 25, 8, 19, desRule) },
		"storm":     func() *Figure { return Storm([]float64{8, 14}, 25, 19, desRule) },
		"coll":      func() *Figure { return Collision([]float64{8, 14}, 25, 6, 19, desRule) },
		"msg":       func() *Figure { return MessageComplexity([]int{20, 35}, 6, 19, desRule) },
		"fig8":      func() *Figure { return Fig8(8, []int{20, 30}, 19, desRule) },
		"faults":    func() *Figure { return Faults([]float64{0, 0.5}, 25, 8, 19, desRule) },
		"traffic":   func() *Figure { return Traffic([]float64{0.1, 0.5}, 25, 8, 10, 2, 19, desRule) },
		"discovery": func() *Figure { return Discovery([]float64{0.1, 0.5}, 25, 8, 8, 2, 19, desRule) },
	}
	defer SetParallelism(0)
	for name, mk := range figs {
		for _, workers := range []int{1, 4, 8} {
			SetParallelism(workers)
			csv := mk().CSV()
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(csv))); got != scalarCSVDigests[name] {
				t.Errorf("%s: CSV digest %s at %d workers, want the scalar engines' %s", name, got, workers, scalarCSVDigests[name])
			}
		}
	}
}
