package sim

import "math"

// RNG is a small, fast, deterministic random number generator
// (xoshiro256** seeded via splitmix64). Each stochastic component of the
// simulation owns its own RNG derived from the scenario seed and a label,
// so adding a component never perturbs the random streams of others.
type RNG struct {
	s [4]uint64
}

// NewRNG returns an RNG seeded from seed via splitmix64.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		r.s[i] = z ^ z>>31
	}
	// Avoid the all-zero state (cannot occur with splitmix, but be safe).
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Derive returns a new RNG whose stream is a deterministic function of r's
// seed material and the label, without consuming from r's own stream.
func (r *RNG) Derive(label string) *RNG { return NewRNG(r.s[0] ^ labelHash(label)) }

// DeriveSeed maps a scenario seed and a label to the seed of an
// independent deterministic stream, using the same splitmix64 + FNV-64
// construction as RNG.Derive: NewRNG(DeriveSeed(seed, label)) yields
// the stream NewRNG(seed).Derive(label). The segments of a
// multi-segment cluster use it so that segment i's RNG universe is a
// pure function of (seed, i).
func DeriveSeed(seed uint64, label string) uint64 { return NewRNG(seed).s[0] ^ labelHash(label) }

// labelHash is the FNV-64 hash of a stream label.
func labelHash(label string) uint64 {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return h
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Normal returns a normally distributed value (Box–Muller, one value per
// call for simplicity and stream stability).
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Exponential returns an exponentially distributed value with the given
// mean. Used for background traffic inter-arrival times.
func (r *RNG) Exponential(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Poisson returns a Poisson-distributed count with the given mean,
// used for tick-aggregated arrival batches. Small means use Knuth's
// product method (exact); means of 30 and above switch to a rounded
// normal approximation whose error is far below the shot noise at that
// scale, keeping the cost O(1) instead of O(mean). Both branches
// consume a bounded, deterministic number of stream draws for a given
// outcome, so counts are reproducible from the seed alone.
func (r *RNG) Poisson(mean float64) uint64 {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		var k uint64
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := math.Round(r.Normal(mean, math.Sqrt(mean)))
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// TruncNormal returns a normal value clamped to [lo, hi], modelling
// bounded hardware jitter (e.g. bus-arbitration delays).
func (r *RNG) TruncNormal(mean, stddev, lo, hi float64) float64 {
	v := r.Normal(mean, stddev)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Pareto returns a bounded Pareto sample in [lo, hi] with shape a > 0,
// modelling heavy-tailed queueing delays in the WAN path.
func (r *RNG) Pareto(a, lo, hi float64) float64 {
	u := r.Float64()
	la := math.Pow(lo, a)
	ha := math.Pow(hi, a)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/a)
}
