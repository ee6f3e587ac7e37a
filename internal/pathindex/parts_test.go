package pathindex

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cirank/internal/graph"
)

func partsFixture(t *testing.T) (*graph.Graph, []float64, *StarIndex) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	g, isStar := randomBipartite(rng, 3, 4, 12)
	damp := randomDamp(rng, g.NumNodes())
	ix, err := BuildStar(g, damp, isStar, 4)
	if err != nil {
		t.Fatal(err)
	}
	return g, damp, ix
}

func TestPartsRoundTrip(t *testing.T) {
	g, damp, ix := partsFixture(t)
	re, err := FromParts(g, damp, ix.Parts())
	if err != nil {
		t.Fatalf("FromParts rejected the index's own parts: %v", err)
	}
	if re.NumStarNodes() != ix.NumStarNodes() || re.MaxDepth() != ix.MaxDepth() {
		t.Fatalf("shape %d/%d, want %d/%d",
			re.NumStarNodes(), re.MaxDepth(), ix.NumStarNodes(), ix.MaxDepth())
	}
	for u := 0; u < g.NumNodes(); u++ {
		for v := 0; v < g.NumNodes(); v++ {
			a, b := graph.NodeID(u), graph.NodeID(v)
			if ix.DistanceLB(a, b) != re.DistanceLB(a, b) {
				t.Fatalf("DistanceLB(%d, %d) differs after reassembly", u, v)
			}
			if ix.RetentionUB(a, b) != re.RetentionUB(a, b) {
				t.Fatalf("RetentionUB(%d, %d) differs after reassembly", u, v)
			}
		}
	}
}

// TestStarIndexRoundTrip is the property form of TestPartsRoundTrip: on
// random bipartite graphs, an index reassembled by FromParts from copies of
// its own tables answers every lookup exactly like the original.
func TestStarIndexRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, isStar := randomBipartite(rng, 2+rng.Intn(3), 3+rng.Intn(5), 10+rng.Intn(10))
		damp := randomDamp(rng, g.NumNodes())
		ix, err := BuildStar(g, damp, isStar, 4)
		if err != nil {
			return false
		}
		p := ix.Parts()
		p.IsStar = append([]bool(nil), p.IsStar...)
		p.StarIdx = append([]int32(nil), p.StarIdx...)
		p.Dist = append([]uint8(nil), p.Dist...)
		p.Ret = append([]float64(nil), p.Ret...)
		loaded, err := FromParts(g, append([]float64(nil), damp...), p)
		if err != nil {
			t.Logf("FromParts: %v", err)
			return false
		}
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				a, b := graph.NodeID(u), graph.NodeID(v)
				if ix.DistanceLB(a, b) != loaded.DistanceLB(a, b) ||
					ix.RetentionUB(a, b) != loaded.RetentionUB(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFromPartsRejectsBrokenTables(t *testing.T) {
	g, damp, ix := partsFixture(t)
	base := ix.Parts()

	// Each mutation deep-copies the slices it touches so cases stay
	// independent.
	clone := func() StarParts {
		p := base
		p.IsStar = append([]bool(nil), base.IsStar...)
		p.StarIdx = append([]int32(nil), base.StarIdx...)
		p.Dist = append([]uint8(nil), base.Dist...)
		p.Ret = append([]float64(nil), base.Ret...)
		return p
	}
	firstStar := -1
	for v, s := range base.IsStar {
		if s {
			firstStar = v
			break
		}
	}
	if firstStar < 0 || base.NumStar < 1 {
		t.Fatal("fixture has no star nodes")
	}

	cases := []struct {
		name string
		f    func(p *StarParts)
	}{
		{"zero maxDepth", func(p *StarParts) { p.MaxDepth = 0 }},
		{"huge maxDepth", func(p *StarParts) { p.MaxDepth = 1 << 16 }},
		{"short flags", func(p *StarParts) { p.IsStar = p.IsStar[:1] }},
		{"short ordinals", func(p *StarParts) { p.StarIdx = p.StarIdx[:1] }},
		{"negative star count", func(p *StarParts) { p.NumStar = -1 }},
		{"star count over nodes", func(p *StarParts) { p.NumStar = g.NumNodes() + 1 }},
		{"wrong ordinal", func(p *StarParts) { p.StarIdx[firstStar] = 7 }},
		{"ordinal on non-star", func(p *StarParts) {
			for v, s := range p.IsStar {
				if !s {
					p.StarIdx[v] = 0
					return
				}
			}
		}},
		{"flag count under header", func(p *StarParts) { p.NumStar = base.NumStar + 1 }},
		{"short dist", func(p *StarParts) { p.Dist = p.Dist[:len(p.Dist)-1] }},
		{"short ret", func(p *StarParts) { p.Ret = p.Ret[:len(p.Ret)-1] }},
		{"dist beyond horizon", func(p *StarParts) { p.Dist[0] = uint8(p.MaxDepth + 2) }},
		{"negative retention", func(p *StarParts) { p.Ret[0] = -0.5 }},
		{"NaN retention", func(p *StarParts) { p.Ret[0] = math.NaN() }},
		{"far above one", func(p *StarParts) { p.Far = 1.5 }},
		{"NaN far", func(p *StarParts) { p.Far = math.NaN() }},
	}
	for _, c := range cases {
		p := clone()
		c.f(&p)
		if _, err := FromParts(g, damp, p); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := FromParts(g, damp[:1], clone()); err == nil {
		t.Error("short damp vector accepted")
	}
}
