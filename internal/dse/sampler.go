package dse

import (
	"math"
	"math/rand"
	"sort"

	"edacloud/internal/synth"
)

// Params is one point of the search space, spanning all three axes the
// tentpole names: the synthesis recipe (Passes), a stage parameter
// (the STA clock period, by index into clockPeriodsNs), and the
// instance plan (the deadline slack factor, by index into
// slackFactors — the knob that decides which machines the
// deployment optimizer buys).
type Params struct {
	Passes   []synth.PassKind
	ClockIdx int
	SlackIdx int
}

// passLetters is the canonical short code per pass kind.
func passLetter(p synth.PassKind) byte {
	switch p {
	case synth.PassBalance:
		return 'b'
	case synth.PassRewrite:
		return 'w'
	case synth.PassRefactor:
		return 'f'
	}
	return '?'
}

// Recipe renders the pass list as a synth.Recipe whose name derives
// canonically from the passes ("dse:bwf"). The canonical name matters:
// recipe identity participates in artifact-cache keys, so two trials
// sampling the same pass sequence must produce byte-identical recipes
// to share cache entries.
func (p Params) Recipe() synth.Recipe {
	if len(p.Passes) == 0 {
		return synth.Recipe{Name: "dse:raw"}
	}
	name := make([]byte, 0, 4+len(p.Passes))
	name = append(name, "dse:"...)
	for _, k := range p.Passes {
		name = append(name, passLetter(k))
	}
	return synth.Recipe{Name: string(name), Passes: append([]synth.PassKind(nil), p.Passes...)}
}

// key is the canonical identity used for within-round dedup.
func (p Params) key() string {
	r := p.Recipe()
	return r.Name + "|" + string(rune('0'+p.ClockIdx)) + "|" + string(rune('0'+p.SlackIdx))
}

const (
	// samplerGamma is the fraction of history treated as the "good"
	// density; samplerMinHistory gates the model on a uniform prior
	// until enough observations exist; samplerEpsilon keeps a floor of
	// pure prior exploration forever.
	samplerGamma      = 0.25
	samplerMinHistory = 4
	samplerEpsilon    = 0.15
	samplerCandidates = 8
)

// observation is one evaluated point the sampler learns from.
type observation struct {
	p   Params
	obj Objectives
}

// sampler is a TPE-style model over the categorical search space: the
// evaluated history is split into a good quantile and the rest, each
// side fitted with smoothed categorical densities per dimension
// (recipe length, pass identity per position, clock index, slack
// index); candidates are drawn from the good density and ranked by the
// likelihood ratio l(x)/g(x). Everything runs off one seeded rng on
// one goroutine, so the emission sequence is a pure function of the
// seed and the observation order.
type sampler struct {
	rng       *rand.Rand
	maxPasses int
	hist      []observation
}

func newSampler(seed int64, maxPasses int) *sampler {
	return &sampler{
		rng:       rand.New(rand.NewSource(seed)),
		maxPasses: maxPasses,
	}
}

// observe records an evaluated point.
func (s *sampler) observe(p Params, obj Objectives) {
	s.hist = append(s.hist, observation{p: p, obj: obj})
}

// randomParams draws from the uniform prior over the whole space.
func (s *sampler) randomParams() Params {
	n := s.rng.Intn(s.maxPasses + 1)
	p := Params{
		Passes:   make([]synth.PassKind, n),
		ClockIdx: s.rng.Intn(len(clockPeriodsNs)),
		SlackIdx: s.rng.Intn(len(slackFactors)),
	}
	for i := range p.Passes {
		p.Passes[i] = synth.PassKind(s.rng.Intn(3))
	}
	return p
}

// density is one side's smoothed categorical counts.
type density struct {
	length []float64   // recipe length 0..maxPasses
	pass   [][]float64 // [position][kind], positions 0..maxPasses-1
	clock  []float64
	slack  []float64
}

func newDensity(maxPasses int) *density {
	d := &density{
		length: make([]float64, maxPasses+1),
		pass:   make([][]float64, maxPasses),
		clock:  make([]float64, len(clockPeriodsNs)),
		slack:  make([]float64, len(slackFactors)),
	}
	for i := range d.pass {
		d.pass[i] = make([]float64, 3)
	}
	return d
}

func (d *density) add(p Params) {
	d.length[len(p.Passes)]++
	for i, k := range p.Passes {
		d.pass[i][int(k)]++
	}
	d.clock[p.ClockIdx]++
	d.slack[p.SlackIdx]++
}

// logProb scores one categorical pick under +1-smoothed counts.
func logProb(counts []float64, idx int) float64 {
	total := float64(len(counts))
	for _, c := range counts {
		total += c
	}
	return math.Log((counts[idx] + 1) / total)
}

// drawCat samples an index from +1-smoothed counts.
func drawCat(rng *rand.Rand, counts []float64) int {
	total := float64(len(counts))
	for _, c := range counts {
		total += c
	}
	x := rng.Float64() * total
	for i, c := range counts {
		x -= c + 1
		if x < 0 {
			return i
		}
	}
	return len(counts) - 1
}

// logDensity scores a full point under one side.
func (d *density) logDensity(p Params) float64 {
	lp := logProb(d.length, len(p.Passes))
	for i, k := range p.Passes {
		lp += logProb(d.pass[i], int(k))
	}
	lp += logProb(d.clock, p.ClockIdx)
	lp += logProb(d.slack, p.SlackIdx)
	return lp
}

// draw samples a full point from one side's densities.
func (d *density) draw(rng *rand.Rand) Params {
	n := drawCat(rng, d.length)
	p := Params{Passes: make([]synth.PassKind, n)}
	for i := range p.Passes {
		p.Passes[i] = synth.PassKind(drawCat(rng, d.pass[i]))
	}
	p.ClockIdx = drawCat(rng, d.clock)
	p.SlackIdx = drawCat(rng, d.slack)
	return p
}

// sample emits the next point to evaluate: the uniform prior while the
// history is thin (or with the epsilon exploration floor), else the
// TPE step — split history into good/bad by non-dominated rank with a
// scalarized tie-break, draw candidates from the good density and keep
// the best likelihood ratio.
func (s *sampler) sample() Params {
	if len(s.hist) < samplerMinHistory || s.rng.Float64() < samplerEpsilon {
		return s.randomParams()
	}
	objs := make([]Objectives, len(s.hist))
	for i, o := range s.hist {
		objs[i] = o.obj
	}
	rank := nonDominatedRanks(objs)
	scalar := scalarize(objs)
	order := make([]int, len(s.hist))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if rank[ia] != rank[ib] {
			return rank[ia] < rank[ib]
		}
		if scalar[ia] != scalar[ib] {
			return scalar[ia] < scalar[ib]
		}
		return ia < ib
	})
	nGood := int(math.Ceil(samplerGamma * float64(len(s.hist))))
	if nGood < 1 {
		nGood = 1
	}
	good := newDensity(s.maxPasses)
	bad := newDensity(s.maxPasses)
	for i, idx := range order {
		if i < nGood {
			good.add(s.hist[idx].p)
		} else {
			bad.add(s.hist[idx].p)
		}
	}
	var best Params
	bestScore := math.Inf(-1)
	for c := 0; c < samplerCandidates; c++ {
		cand := good.draw(s.rng)
		score := good.logDensity(cand) - bad.logDensity(cand)
		if score > bestScore {
			bestScore = score
			best = cand
		}
	}
	return best
}
