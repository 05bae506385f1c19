package main

import (
	"math"
	"math/rand"
	"sort"

	"semilocal/internal/dataset"
)

// Seeded inputs. Every input is a pure function of the run seed and a
// stream label, built from the internal/dataset generators, so the same
// seed gives the same bytes in every process.

// mix derives an independent sub-seed (splitmix64 finalizer).
func mix(seed int64, label, i uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(label+1) + 0xbf58476d1ce4e5b9*(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Stream labels for mix.
const (
	labSolve = iota + 1
	labBinary
	labBanded
	labServe
	labFresh
	labStream
	labChunk
	labClient
	labMix
	labCheck
	labSchedule
)

type pair struct{ a, b []byte }

// Offline input sizes.
const (
	solveLen    = 4096
	solvePool   = 8
	binaryBits  = 32768
	bandedLen   = 1_000_000
	bandedEdits = 200
)

// solvePairs is the offline solve pool: half independent normal-σ
// pairs (σ cycling through 1, 2, 4, 8 tunes the match frequency), half
// related genome-like pairs cut to solveLen.
func solvePairs(seed int64) []pair {
	out := make([]pair, solvePool)
	for i := range out {
		s := mix(seed, labSolve, uint64(i))
		if i%2 == 0 {
			sigma := float64(int(1) << ((i / 2) % 4))
			out[i] = pair{dataset.Normal(solveLen, sigma, s), dataset.Normal(solveLen, sigma, s^0x5bd1e995)}
			continue
		}
		a, b := dataset.GenomePair(solveLen+solveLen/16, s)
		out[i] = pair{a[:solveLen], b[:solveLen]}
	}
	return out
}

// binaryPair is the offline bit-parallel pair.
func binaryPair(seed int64) pair {
	s := mix(seed, labBinary, 0)
	return pair{dataset.Binary(binaryBits, 0.5, s), dataset.Binary(binaryBits, 0.5, s^0x5bd1e995)}
}

// plantedPair is a random genome of length n and a copy carrying
// exactly edits planted substitutions, insertions and deletions at
// distinct positions, so the edit distance is at most edits.
func plantedPair(n, edits int, seed int64) pair {
	rng := rand.New(rand.NewSource(seed))
	a := dataset.RandomGenome("planted", n, rng).Seq
	at := make(map[int]bool, edits)
	for len(at) < edits {
		at[rng.Intn(n)] = true
	}
	const nt = "ACGT"
	b := make([]byte, 0, n+edits)
	for i, c := range a {
		if !at[i] {
			b = append(b, c)
			continue
		}
		switch rng.Intn(3) {
		case 0: // substitution by a different nucleotide
			b = append(b, nt[(indexNT(c)+1+rng.Intn(3))%4])
		case 1: // insertion before a[i]
			b = append(b, nt[rng.Intn(4)], c)
		case 2: // deletion of a[i]
		}
	}
	return pair{a, b}
}

func indexNT(c byte) int {
	switch c {
	case 'C':
		return 1
	case 'G':
		return 2
	case 'T':
		return 3
	}
	return 0
}

// bandedPairs is the offline banded pool.
func bandedPairs(seed int64) []pair {
	out := make([]pair, 2)
	for i := range out {
		out[i] = plantedPair(bandedLen, bandedEdits, mix(seed, labBanded, uint64(i)))
	}
	return out
}

// Serving input size: each side of a pair is about this many bytes.
const serveLen = 256

// servePairs is the first n working-set pairs: two related
// genome-like strings each.
func servePairs(seed int64, n int) []pair {
	out := make([]pair, n)
	for i := range out {
		a, b := dataset.GenomePair(serveLen, mix(seed, labServe, uint64(i)))
		out[i] = pair{a, b}
	}
	return out
}

// freshPair is the never-seen pair with id i (its seed stream is
// disjoint from the working set's).
func freshPair(seed int64, i int64) pair {
	a, b := dataset.GenomePair(serveLen, mix(seed, labFresh, uint64(i)))
	return pair{a, b}
}

// Stream-group shape: P patterns of length streamM drawn from a pool of
// 16 distinct spines (4 seeded binary shapes × 4 disjoint two-letter
// alphabets), chunks of streamChunk bytes, a window of streamWindow
// chunks.
const (
	streamP      = 256
	streamM      = 16
	streamChunk  = 64
	streamWindow = 8
)

// streamPatterns returns the P patterns: pattern i is shape i%4 spelled
// in alphabet (i/4)%4, so the group holds exact duplicates (patterns
// 16 apart) and relabelings (same shape, other alphabet).
func streamPatterns(seed int64) [][]byte {
	var shapes [4][]byte
	for s := range shapes {
		shapes[s] = dataset.Binary(streamM, 0.5, mix(seed, labStream, uint64(s)))
	}
	pats := make([][]byte, streamP)
	for i := range pats {
		shape := shapes[i%4]
		base := byte('a' + 2*((i/4)%4))
		p := make([]byte, streamM)
		for j, bit := range shape {
			p[j] = base + bit
		}
		pats[i] = p
	}
	return pats
}

// chunkAt is the chunk appended in round r. Seeded per round, half the
// chunks are text over the patterns' letters a–h, so leaves differ per
// relabeling, and half are background over w–z, which every relabeling
// of a shape sees alike, so the group shares their leaf solves.
func chunkAt(seed int64, r int) []byte {
	s := mix(seed, labChunk, uint64(r))
	var c []byte
	if s&1 == 0 {
		c = dataset.Uniform(streamChunk, 8, s)
		for i := range c {
			c[i] += 'a'
		}
	} else {
		c = dataset.Uniform(streamChunk, 4, s)
		for i := range c {
			c[i] += 'w'
		}
	}
	return c
}

// prng is a small splitmix64 generator for per-request choices: cheap
// to seed per request, unlike math/rand sources.
type prng struct{ s uint64 }

func newPRNG(seed int64) *prng { return &prng{uint64(seed)} }

func (r *prng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *prng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *prng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks 0…n−1 with P(k) ∝ 1/(k+1)^s by inverting a
// precomputed CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	total := 0.0
	for k := range cdf {
		total += 1 / math.Pow(float64(k+1), s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return zipf{cdf}
}

func (z zipf) draw(r *prng) int {
	u := r.float()
	return min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)
}
