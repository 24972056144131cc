package main

import (
	"math"
	"sort"
	"time"
)

// samples holds one op class's latencies in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile (0 for no samples).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c) {
		i = len(c) - 1
	}
	return c[i]
}

// beyond reports how many samples lie above the q-quantile's rank: a
// tail percentile is only reported when at least ten samples sit past it.
func (s samples) beyond(q float64) int {
	return len(s) - int(math.Ceil(q*float64(len(s))))
}

func median(xs []float64) float64 { return samples(xs).quantile(0.5) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// opCount tallies attempted and failed ops of one type.
type opCount struct{ attempted, failed int64 }

func (c *opCount) done(err error) {
	c.attempted++
	if err != nil {
		c.failed++
	}
}

// ops is the failure ledger of a run, keyed by op type (hunt, fuzzy,
// chunk, flush, reopen).
type ops map[string]*opCount

func (o ops) get(kind string) *opCount {
	c := o[kind]
	if c == nil {
		c = &opCount{}
		o[kind] = c
	}
	return c
}

func (o ops) merge(other ops) {
	for k, c := range other {
		m := o.get(k)
		m.attempted += c.attempted
		m.failed += c.failed
	}
}

func (o ops) totals() (attempted, failed int64) {
	for _, c := range o {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

// idsHash is an order-independent digest of an event-ID set.
func idsHash(ids map[int64]bool) uint64 {
	var h uint64
	for id := range ids {
		h += mix(uint64(id))
	}
	return h ^ uint64(len(ids))
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
