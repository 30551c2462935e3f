package mcbound

import "math/rand"

// Source is math/rand's generator — the additive lagged Fibonacci source
// rand.NewSource returns — with a cheaper Seed: for every seed its
// outputs equal rand.NewSource(seed)'s, so a rand.Rand over it draws the
// same stream bit for bit, and it can be re-seeded in place without
// allocating. It is the one generator of the query path: every sample
// stream the engine and the NN kernel draw runs on it.
//
// math/rand seeds its 607-word state from 1 841 dependent steps of the
// Lehmer recurrence x ← 48271·x mod (2³¹−1), each a Schrage division.
// The state word i takes the steps 21+3i, 22+3i and 23+3i, so Seed runs
// three independent chains instead, each stepped by 48271³ mod (2³¹−1)
// with a Mersenne reduction (a shift and an add) in place of the
// division; the chains overlap in the pipeline and seeding costs about
// a quarter of rand.NewSource's. Each word is then XORed with
// math/rand's fixed table (rngCooked), which is not copied here but
// recovered from rand.NewSource(1) when the package is initialised
// (see recoverCooked).
//
// A Source is not safe for concurrent use.
type Source struct {
	tap, feed int
	vec       [srcLen]uint64
}

var _ rand.Source64 = (*Source)(nil)

const (
	srcLen = 607 // state words
	srcTap = 273 // lag of the second term

	lehmerM    = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	lehmerA    = 48271
	lehmerZero = 89482311 // what math/rand seeds with in place of a zero seed
)

// Powers of lehmerA that Seed steps its three chains by.
var (
	lehmerA3  = powMod(lehmerA, 3)
	lehmerA21 = powMod(lehmerA, 21)
)

// The first output adds state word firstFeed to word firstTap (see
// FirstUint64); firstPow holds the Lehmer powers those two words are
// packed from, three per word.
const (
	firstFeed = srcLen - srcTap - 1
	firstTap  = srcLen - 1
)

var firstPow = [6]uint64{
	powMod(lehmerA, 21+3*firstFeed), powMod(lehmerA, 22+3*firstFeed), powMod(lehmerA, 23+3*firstFeed),
	powMod(lehmerA, 21+3*firstTap), powMod(lehmerA, 22+3*firstTap), powMod(lehmerA, 23+3*firstTap),
}

// cooked is math/rand's rngCooked table, as recovered at init.
var cooked = recoverCooked()

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed puts the source in the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	s.tap, s.feed = 0, srcLen-srcTap
	lehmerWords(&s.vec, seed, &cooked)
}

// Uint64 returns the next 64-bit output, math/rand's Uint64.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 returns the next output with its top bit cleared, math/rand's
// Int63.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// FirstUint64 returns what Uint64 first returns after Seed(seed) — the
// first output of rand.NewSource(seed) — without seeding a source: the
// first output is state word 333 (the feed) plus word 606 (the tap),
// and a word's Lehmer values are the seed times fixed powers of 48271,
// so six multiplications replace the 1 824 of Seed. A caller that wants
// one value from a seed's stream, as a parent seed, pays for one value.
func FirstUint64(seed int64) uint64 {
	x := lehmerSeed(seed)
	p := &firstPow
	feed := mulMod(x, p[0])<<40 ^ mulMod(x, p[1])<<20 ^ mulMod(x, p[2]) ^ cooked[firstFeed]
	tap := mulMod(x, p[3])<<40 ^ mulMod(x, p[4])<<20 ^ mulMod(x, p[5]) ^ cooked[firstTap]
	return feed + tap
}

// lehmerSeed is the Lehmer chain's start for seed, as math/rand takes
// it: seed mod 2³¹−1, with 0 replaced.
func lehmerSeed(seed int64) uint64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = lehmerZero
	}
	return uint64(seed)
}

// lehmerWords sets vec[i] to math/rand's seeding word i for seed — the
// Lehmer values x₂₁₊₃ᵢ, x₂₂₊₃ᵢ, x₂₃₊₃ᵢ packed at bit offsets 40, 20
// and 0 (the top bits of the first shifted out) — XORed with mask[i].
func lehmerWords(vec *[srcLen]uint64, seed int64, mask *[srcLen]uint64) {
	a := mulMod(lehmerSeed(seed), lehmerA21)
	b := mulMod(a, lehmerA)
	c := mulMod(b, lehmerA)
	for i := range vec {
		vec[i] = (a<<40 ^ b<<20 ^ c) ^ mask[i]
		a, b, c = mulMod(a, lehmerA3), mulMod(b, lehmerA3), mulMod(c, lehmerA3)
	}
}

// mulMod returns x·y mod (2³¹−1) for x, y in [1, 2³¹−1). The product is
// below 2⁶², so one fold of its high bits onto its low (2³¹ ≡ 1) leaves
// a value below 2·(2³¹−1), and one subtraction finishes; a product of
// non-zero residues of a prime is never a multiple of it.
func mulMod(x, y uint64) uint64 {
	p := x * y
	r := p&lehmerM + p>>31
	if r >= lehmerM {
		r -= lehmerM
	}
	return r
}

func powMod(x uint64, n int) uint64 {
	r := uint64(1)
	for range n {
		r = mulMod(r, x)
	}
	return r
}

// recoverCooked inverts the first srcLen outputs of rand.NewSource(1)
// back to the state its Seed(1) left, and strips seed 1's Lehmer words
// off it, which leaves the table math/rand XORs in.
//
// Output k (counting from 0) adds the tap word 606−k to the feed word
// (333−k) mod 607 and stores the sum there. No feed word has been
// written before it is fed, and every tap word from output 273 on is
// one output k−273 wrote. So for k ≥ 273 the feed word was out[k] −
// out[k−273], which recovers words 0..60 and 334..606; for k < 273 the
// tap word is one of those, and the feed word, 61..333, is out[k] minus
// it.
func recoverCooked() [srcLen]uint64 {
	ref := rand.NewSource(1).(rand.Source64)
	var out, vec, words, zero [srcLen]uint64
	for k := range out {
		out[k] = ref.Uint64()
	}
	const feed0 = srcLen - srcTap - 1 // the first output's feed word
	for k := srcTap; k < srcLen; k++ {
		vec[(feed0-k+srcLen)%srcLen] = out[k] - out[k-srcTap]
	}
	for k := range srcTap {
		vec[feed0-k] = out[k] - vec[srcLen-1-k]
	}
	lehmerWords(&words, 1, &zero)
	for i := range vec {
		vec[i] ^= words[i]
	}
	return vec
}
