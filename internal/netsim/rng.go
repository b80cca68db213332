package netsim

import (
	"math"
	"math/rand"
	"sync"
)

// RNG is a deterministic random source with the distributions used by the
// synthetic workload generator and the latency model. It wraps math/rand
// with a mutex so that concurrent experiment goroutines draw from a single
// reproducible stream.
type RNG struct {
	mu sync.Mutex
	r  *rand.Rand
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (g *RNG) Intn(n int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.Intn(n)
}

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.Float64()
}

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.NormFloat64()
}

// LogNormal returns a log-normal variate with the given location mu and
// scale sigma of the underlying normal. Package sizes and file counts in
// real repositories are heavy-tailed; the paper's Figures 8-9 span four
// orders of magnitude, which a log-normal reproduces.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.NormFloat64())
}

// Pareto returns a Pareto(xm, alpha) variate, used for the extreme package
// size tail (the packages that exceed the SGX EPC in Figure 12).
func (g *RNG) Pareto(xm, alpha float64) float64 {
	u := g.Float64()
	for u == 0 {
		u = g.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Jitter returns a multiplicative jitter factor in [1-f, 1+f].
func (g *RNG) Jitter(f float64) float64 {
	return 1 + f*(2*g.Float64()-1)
}
