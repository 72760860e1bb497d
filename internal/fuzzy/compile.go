package fuzzy

import (
	"fmt"
	"sync"
)

// This file implements the compiled inference fast path. A RuleBase is
// lowered once into a Program: an index-based representation in which
// every antecedent is a postfix instruction sequence over pre-resolved
// fuzzification slots, every consequent references a pre-sampled output
// set, and all per-inference working memory (fuzzification grades,
// evaluation stack, Result buffers) comes from sync.Pools. Steady-state
// compiled inference performs zero heap allocations when callers return
// Results to the pool via Result.Release.
//
// The compiled path is bit-for-bit equivalent to the reference
// interpreter the tests keep (Engine.inferInterpreted): rules are
// evaluated in the same order, fuzzification grades are memoized per
// (variable, term) exactly as before, and consequent sets are
// pre-sampled with the same universe discretization the interpreter
// uses.

// Opcode of one compiled antecedent instruction.
const (
	opAtom byte = iota // push hedge(grades[atom])
	opNot              // top = 1 - top
	opAnd              // pop y; top = min(top, y)
	opOr               // pop y; top = max(top, y)
)

// instr is one postfix instruction of a compiled antecedent.
type instr struct {
	op    byte
	hedge Hedge
	atom  int32 // opAtom: index into Program.atoms
}

// inputSlot is one distinct input variable referenced by the rule base.
type inputSlot struct {
	name     string
	min, max float64 // universe, for measurement clamping
	ruleIdx  int     // first rule referencing the variable (error context)
}

// atomSlot is one distinct (variable, term) fuzzification, shared by all
// antecedent atoms referencing the pair — the compiled analogue of the
// interpreter's per-call memo map.
type atomSlot struct {
	input int // index into Program.inputs
	mf    MembershipFunc
}

// compiledConsequent is one "THEN var IS term" clause with the term's
// membership function pre-sampled over the output universe, so inference
// unions plain float slices instead of re-evaluating the function at
// every sample point.
type compiledConsequent struct {
	out int // index into Program.outputs
	pre *Set
}

// compiledRule is one rule of the program.
type compiledRule struct {
	code   []instr
	weight float64
	cons   []compiledConsequent
}

// outputSlot is one distinct output variable of the rule base.
type outputSlot struct {
	name     string
	min, max float64
}

// Program is the compiled, immutable form of a rule base. It is safe for
// concurrent use by any number of goroutines: all mutable working memory
// is pooled per call.
type Program struct {
	rb       *RuleBase
	inputs   []inputSlot
	atoms    []atomSlot
	rules    []compiledRule
	outputs  []outputSlot
	maxDepth int // deepest evaluation stack across all rules

	scratch sync.Pool // of *inferScratch
	results sync.Pool // of *Result
}

// inferScratch is the per-call working memory of a compiled inference.
type inferScratch struct {
	inVals []float64 // clamped measurements, by input slot
	grades []float64 // memoized fuzzification grades, by atom slot
	stack  []float64 // antecedent evaluation stack
}

// Compile lowers the rule base into its index-based program. Compilation
// happens at most once per rule base (Engine.Infer compiles lazily on
// first use); calling Compile eagerly simply warms the program, e.g.
// before handing the rule base to concurrent controllers.
func (rb *RuleBase) Compile() *Program { return rb.program() }

// program returns the lazily compiled program.
func (rb *RuleBase) program() *Program {
	rb.compileOnce.Do(func() { rb.prog = compile(rb) })
	return rb.prog
}

// compile builds the program. The rule base was validated at
// construction, so every variable and term lookup must succeed.
func compile(rb *RuleBase) *Program {
	p := &Program{rb: rb}

	inputIdx := make(map[string]int)
	type atomKey struct{ v, t string }
	atomIdx := make(map[atomKey]int)

	intern := func(ruleIdx int, v, t string) int32 {
		k := atomKey{v, t}
		if i, ok := atomIdx[k]; ok {
			return int32(i)
		}
		in, ok := inputIdx[v]
		if !ok {
			vr, found := rb.vocab.Get(v)
			if !found {
				panic(fmt.Sprintf("fuzzy: compile %q: unknown variable %q", rb.Name, v))
			}
			in = len(p.inputs)
			inputIdx[v] = in
			p.inputs = append(p.inputs, inputSlot{
				name: v, min: vr.Min, max: vr.Max, ruleIdx: ruleIdx,
			})
		}
		vr, _ := rb.vocab.Get(v)
		term, found := vr.Term(t)
		if !found {
			panic(fmt.Sprintf("fuzzy: compile %q: variable %q has no term %q", rb.Name, v, t))
		}
		i := len(p.atoms)
		atomIdx[atomKey{v, t}] = i
		p.atoms = append(p.atoms, atomSlot{input: in, mf: term.MF})
		return int32(i)
	}

	// lower emits postfix code for an antecedent expression and returns
	// its maximum evaluation stack depth.
	var lower func(ruleIdx int, e Expr, code *[]instr) int
	lower = func(ruleIdx int, e Expr, code *[]instr) int {
		switch e := e.(type) {
		case IsExpr:
			*code = append(*code, instr{op: opAtom, hedge: e.Hedge, atom: intern(ruleIdx, e.Var, e.Term)})
			return 1
		case NotExpr:
			d := lower(ruleIdx, e.X, code)
			*code = append(*code, instr{op: opNot})
			return d
		case AndExpr:
			dx := lower(ruleIdx, e.X, code)
			dy := lower(ruleIdx, e.Y, code)
			*code = append(*code, instr{op: opAnd})
			return maxInt(dx, dy+1)
		case OrExpr:
			dx := lower(ruleIdx, e.X, code)
			dy := lower(ruleIdx, e.Y, code)
			*code = append(*code, instr{op: opOr})
			return maxInt(dx, dy+1)
		default:
			panic(fmt.Sprintf("fuzzy: compile %q: unknown expression node %T", rb.Name, e))
		}
	}

	outIdx := make(map[string]int, len(rb.outVars))
	for _, name := range rb.outVars {
		v, ok := rb.vocab.Get(name)
		if !ok {
			panic(fmt.Sprintf("fuzzy: compile %q: unknown output variable %q", rb.Name, name))
		}
		outIdx[name] = len(p.outputs)
		p.outputs = append(p.outputs, outputSlot{name: name, min: v.Min, max: v.Max})
	}

	for i, r := range rb.rules {
		cr := compiledRule{weight: r.effectiveWeight()}
		depth := lower(i, r.Antecedent, &cr.code)
		if depth > p.maxDepth {
			p.maxDepth = depth
		}
		for _, c := range r.Consequents {
			v, _ := rb.vocab.Get(c.Var)
			t, _ := v.Term(c.Term) // validated at construction
			// Pre-sample the consequent term over the output universe.
			// Fill applies exactly the clamp01(mf(x(i))) the interpreter
			// evaluates per call, so union results are bit-identical.
			pre := NewSet(v.Min, v.Max).Fill(t.MF)
			cr.cons = append(cr.cons, compiledConsequent{out: outIdx[c.Var], pre: pre})
		}
		p.rules = append(p.rules, cr)
	}

	p.scratch.New = func() any {
		return &inferScratch{
			inVals: make([]float64, len(p.inputs)),
			grades: make([]float64, len(p.atoms)),
			stack:  make([]float64, p.maxDepth),
		}
	}
	return p
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// newResult hands out a Result sized for the program, recycling released
// ones. Recycled Results keep their maps and Set buffers; only the
// grades and fired degrees are reset, so steady-state inference does not
// allocate.
func (p *Program) newResult() *Result {
	if v := p.results.Get(); v != nil {
		res := v.(*Result)
		res.home = &p.results
		for i := range res.Fired {
			res.Fired[i] = 0
		}
		for _, s := range res.sets {
			s.grades = [setSamples]float64{}
		}
		return res
	}
	res := &Result{
		Outputs: make(map[string]float64, len(p.outputs)),
		Fired:   make([]float64, len(p.rules)),
		Sets:    make(map[string]*Set, len(p.outputs)),
		sets:    make([]*Set, len(p.outputs)),
		home:    &p.results,
	}
	for i, o := range p.outputs {
		s := NewSet(o.min, o.max)
		res.sets[i] = s
		res.Sets[o.name] = s
	}
	return res
}

// NumInputs returns the number of distinct input variables the compiled
// program gathers — the length of the vector InferVec expects.
func (p *Program) NumInputs() int { return len(p.inputs) }

// Inputs returns the names of the program's distinct input variables in
// slot order: the i-th element names the variable a vector-based
// inference reads from vals[i]. Callers receive a copy; the ordering is
// fixed at compile time (first-reference order over the rule list).
func (p *Program) Inputs() []string {
	out := make([]string, len(p.inputs))
	for i := range p.inputs {
		out[i] = p.inputs[i].name
	}
	return out
}

// MissingInputError builds the exact error the map-based Infer path
// reports when the i-th input slot has no measurement, so callers that
// gather inputs themselves (the vector path) surface byte-identical
// error semantics.
func (p *Program) MissingInputError(i int) error {
	in := &p.inputs[i]
	r := in.ruleIdx
	return fmt.Errorf("fuzzy: rule base %q, rule %d (%s): fuzzy: no measurement for input variable %q",
		p.rb.Name, r, p.rb.rules[r], in.name)
}

// finish clamps the gathered measurements (vals[i] for the i-th input
// slot; vals may alias sc.inVals) into the scratch vector and runs
// fuzzification, rule evaluation and defuzzification — the one
// inference path behind Infer and InferVec, so the two entry points are
// bit-identical past the gather. vals is only read.
func (p *Program) finish(e *Engine, sc *inferScratch, vals []float64) *Result {
	for i := range p.inputs {
		in := &p.inputs[i]
		x := vals[i]
		if x < in.min {
			x = in.min
		} else if x > in.max {
			x = in.max
		}
		sc.inVals[i] = x
	}
	// Fuzzify every distinct (variable, term) pair once — the compiled
	// form of the interpreter's memo map.
	for i := range p.atoms {
		a := &p.atoms[i]
		sc.grades[i] = clamp01(a.mf(sc.inVals[a.input]))
	}

	res := p.newResult()
	maxProduct := e.inference == MaxProduct
	for i := range p.rules {
		cr := &p.rules[i]
		truth := clamp01(evalCode(cr.code, sc.grades, sc.stack)) * cr.weight
		res.Fired[i] = truth
		if truth == 0 {
			continue
		}
		for _, c := range cr.cons {
			if maxProduct {
				res.sets[c.out].UnionScaledSet(c.pre, truth)
			} else {
				res.sets[c.out].UnionClippedSet(c.pre, truth)
			}
		}
	}
	for i := range p.outputs {
		res.Outputs[p.outputs[i].name] = e.defuzz.Defuzzify(res.sets[i])
	}
	return res
}

// evalCode runs one antecedent's postfix instruction sequence over the
// fuzzification grades. stack has room for the program's deepest
// expression; values stay in [0, 1].
func evalCode(code []instr, grades, stack []float64) float64 {
	sp := 0
	for i := range code {
		ins := &code[i]
		switch ins.op {
		case opAtom:
			stack[sp] = ins.hedge.Apply(grades[ins.atom])
			sp++
		case opNot:
			stack[sp-1] = 1 - stack[sp-1]
		case opAnd:
			sp--
			if stack[sp] < stack[sp-1] {
				stack[sp-1] = stack[sp]
			}
		case opOr:
			sp--
			if stack[sp] > stack[sp-1] {
				stack[sp-1] = stack[sp]
			}
		}
	}
	return stack[sp-1]
}
