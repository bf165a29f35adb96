package main

import (
	"math"
	mrand "math/rand"
	"math/rand/v2"
	"strconv"
	"time"

	"fraccascade/internal/geom"
	"fraccascade/internal/spatial"
	"fraccascade/internal/subdivision"
)

// Query kinds as coopserve's wire format names them.
const (
	kindCatalog = "catalog"
	kindPoint   = "point"
	kindSpatial = "spatial"
)

// query is one generated query. Point and spatial queries index the
// workload's geometry pool, whose answers the oracle already knows.
type query struct {
	Kind  string
	Shard int
	Key   int64
	Node  int64 // the catalog path runs from the root to this node
	Pool  int   // geoPool index for point and spatial queries
}

// arrivalStream is the arrival schedule's PCG stream, apart from the
// per-request streams, which use the request index. poolSeedXor derives
// the geometry pool's seed from the traffic seed.
const (
	arrivalStream = math.MaxUint64
	poolSeedXor   = 0x706f6f6c // "pool"
)

// arrivals returns the Poisson arrival offsets of an open-loop phase of
// length d at rate req/s. The schedule depends only on the seed.
func arrivals(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(uint64(seed), arrivalStream))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// genRequest appends request i's queries to dst. Each request draws from its
// own PCG stream keyed by (seed, i), so a body never depends on which
// connection sends it or on what was sent before.
func genRequest(w *workload, seed int64, i int, pool *geoPool, dst []query) []query {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(i)))
	s := w.Shape
	for q := 0; q < w.QPR; q++ {
		switch w.Keys {
		case keysGeo:
			kind := kindPoint
			if rng.IntN(2) == 1 {
				kind = kindSpatial
			}
			dst = append(dst, query{Kind: kind, Pool: rng.IntN(pool.size())})
		default:
			bound := s.keyBound()
			var key int64
			if w.Keys == keysClustered && rng.IntN(2) == 0 {
				key = (bound/8)*int64(1+rng.IntN(7)) + rng.Int64N(128) - 64
			} else {
				key = rng.Int64N(bound)
			}
			dst = append(dst, query{
				Kind:  kindCatalog,
				Shard: rng.IntN(s.Shards),
				Key:   key,
				Node:  int64(rng.IntN(s.nodes())),
			})
		}
	}
	return dst
}

// encodeBody appends the POST /query body for qs to dst.
func encodeBody(dst []byte, qs []query, pool *geoPool) []byte {
	dst = append(dst, `{"queries":[`...)
	for i, q := range qs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"kind":"`...)
		dst = append(dst, q.Kind...)
		dst = append(dst, '"')
		switch q.Kind {
		case kindCatalog:
			dst = appendField(dst, "shard", int64(q.Shard))
			dst = appendField(dst, "key", q.Key)
			dst = appendField(dst, "leaf", q.Node)
		case kindPoint:
			p := pool.points[q.Pool]
			dst = appendField(dst, "x", p.X)
			dst = appendField(dst, "y", p.Y)
		case kindSpatial:
			p := pool.boxes[q.Pool]
			dst = appendField(dst, "x", p[0])
			dst = appendField(dst, "y", p[1])
			dst = appendField(dst, "z", p[2])
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

func appendField(dst []byte, name string, v int64) []byte {
	dst = append(dst, `,"`...)
	dst = append(dst, name...)
	dst = append(dst, `":`...)
	return strconv.AppendInt(dst, v, 10)
}

// geoPool holds query points inside the served geometry with their oracle
// answers. Drawing a point costs a brute-force location over every region,
// too slow to do per request at 8192 regions, so requests index a pool
// drawn once per run.
type geoPool struct {
	points  []geom.Point
	regions []int
	boxes   [][3]int64
	cells   []int
}

func (p *geoPool) size() int { return len(p.points) }

// geomSeedXor is coopserve's derivation of its geometry seed from the
// structure seed ("geom"). The oracle depends on it: coopserve generates the
// subdivision and then the complex from one math/rand stream seeded with
// seed ^ geomSeedXor, and so does regenerateGeometry.
const geomSeedXor = 0x67656f6d

// regenerateGeometry rebuilds the subdivision and complex coopserve serves
// for shape s, with coopserve's own generator calls.
func regenerateGeometry(s shape) (*subdivision.Subdivision, *spatial.Complex, error) {
	rng := mrand.New(mrand.NewSource(s.Seed ^ geomSeedXor))
	sub, err := subdivision.Generate(s.Regions, 24, rng)
	if err != nil {
		return nil, nil, err
	}
	cx, err := spatial.Generate(s.Tiles, 4, rng)
	if err != nil {
		return nil, nil, err
	}
	return sub, cx, nil
}

// newGeoPool draws n planar and n spatial query points from the traffic
// seed and locates each by brute force.
func newGeoPool(sub *subdivision.Subdivision, cx *spatial.Complex, seed int64, n int) (*geoPool, error) {
	rng := mrand.New(mrand.NewSource(seed ^ poolSeedXor))
	p := &geoPool{}
	for i := 0; i < n; i++ {
		pt, _ := sub.RandomInteriorPoint(rng)
		region, err := sub.LocateBrute(pt)
		if err != nil {
			return nil, err
		}
		x, y, z, _ := cx.RandomInteriorPoint(rng)
		cell, err := cx.LocateBrute(x, y, z)
		if err != nil {
			return nil, err
		}
		p.points = append(p.points, pt)
		p.regions = append(p.regions, region)
		p.boxes = append(p.boxes, [3]int64{x, y, z})
		p.cells = append(p.cells, cell)
	}
	return p, nil
}

// geometry is the served subdivision and complex, regenerated with
// coopserve's seed derivation, and a pool of query points inside them.
type geometry struct {
	sub *subdivision.Subdivision
	cx  *spatial.Complex
	p   *geoPool
}

func newGeometry(s shape, seed int64, n int) (*geometry, error) {
	sub, cx, err := regenerateGeometry(s)
	if err != nil {
		return nil, err
	}
	p, err := newGeoPool(sub, cx, seed, n)
	if err != nil {
		return nil, err
	}
	return &geometry{sub: sub, cx: cx, p: p}, nil
}

// pool is nil for a run without geometry.
func (g *geometry) pool() *geoPool {
	if g == nil {
		return nil
	}
	return g.p
}
