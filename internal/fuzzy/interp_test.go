package fuzzy

import "fmt"

// inferInterpreted is the reference tree-walking implementation the
// compiled path is differential-tested against (see compile_test.go).
func (e *Engine) inferInterpreted(rb *RuleBase, inputs map[string]float64) (*Result, error) {
	// Fuzzification is memoized per (variable, term).
	type key struct{ v, t string }
	memo := make(map[key]float64)
	fuzz := func(v, t string) (float64, error) {
		k := key{v, t}
		if g, ok := memo[k]; ok {
			return g, nil
		}
		vr, ok := rb.vocab.Get(v)
		if !ok {
			return 0, fmt.Errorf("fuzzy: unknown variable %q", v)
		}
		x, ok := inputs[v]
		if !ok {
			return 0, fmt.Errorf("fuzzy: no measurement for input variable %q", v)
		}
		g, err := vr.Membership(t, x)
		if err != nil {
			return 0, err
		}
		memo[k] = g
		return g, nil
	}

	res := &Result{
		Outputs: make(map[string]float64),
		Fired:   make([]float64, len(rb.rules)),
		Sets:    make(map[string]*Set),
	}
	for _, name := range rb.OutputVars() {
		v, _ := rb.vocab.Get(name)
		res.Sets[name] = NewSet(v.Min, v.Max)
	}

	for i, r := range rb.rules {
		truth, err := r.Antecedent.Eval(fuzz)
		if err != nil {
			return nil, fmt.Errorf("fuzzy: rule base %q, rule %d (%s): %w", rb.Name, i, r, err)
		}
		truth = clamp01(truth) * r.effectiveWeight()
		res.Fired[i] = truth
		if truth == 0 {
			continue
		}
		for _, c := range r.Consequents {
			v, _ := rb.vocab.Get(c.Var)
			t, _ := v.Term(c.Term) // validated at construction
			if e.inference == MaxProduct {
				res.Sets[c.Var].UnionScaled(t.MF, truth)
			} else {
				res.Sets[c.Var].UnionClipped(t.MF, truth)
			}
		}
	}

	for name, set := range res.Sets {
		res.Outputs[name] = e.defuzz.Defuzzify(set)
	}
	return res, nil
}
