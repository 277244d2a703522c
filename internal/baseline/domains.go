package baseline

// Ownership is a share-ownership network: Share[x][y] is the fraction of
// company y's shares owned directly by company x.
type Ownership struct {
	N     int
	Share [][]float64
}

// NewOwnership builds an empty network over n companies.
func NewOwnership(n int) *Ownership {
	s := make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
	}
	return &Ownership{N: n, Share: s}
}

// CompanyControl solves Example 2.7 directly: controls[x][y] is true when
// x's direct shares in y plus the shares held by companies x controls
// exceed one half, and holdings[x][y] is that sum. It is a worklist over
// the monotone fixpoint: control claims only ever get added, so when x
// comes to control z, z's shares are added to x's holdings once, and
// only the holdings that grow are tested against one half — O(N² + the
// number of control claims × the shares a company holds), not a
// recomputation of all N² holdings per round.
//
// The sums are the same floating-point sums, in the same order, as the
// naive iteration's (holding x's own shares first, then those of the
// companies it controls in index order), so the result is identical to
// it bit for bit: a running total near one half is settled by that sum.
func CompanyControl(o *Ownership) (controls [][]bool, holdings [][]float64) {
	n := o.N
	controls = make([][]bool, n)
	holdings = make([][]float64, n)
	owned := make([][]int, n) // owned[z]: the companies z holds shares in
	for x := range controls {
		controls[x] = make([]bool, n)
		holdings[x] = append([]float64(nil), o.Share[x]...)
		for y, s := range o.Share[x] {
			if s != 0 {
				owned[x] = append(owned[x], y)
			}
		}
	}
	// exact is holdings[x][y] summed in the naive iteration's order over
	// the claims made so far.
	exact := func(x, y int) float64 {
		sum := o.Share[x][y]
		for z := 0; z < n; z++ {
			if z != x && controls[x][z] {
				sum += o.Share[z][y]
			}
		}
		return sum
	}
	// The running totals add the same terms in claim order, so they are
	// within a few ulps of exact; nearTie is far wider than that.
	const nearTie = 1e-9
	var work [][2]int
	claim := func(x, y int) {
		if h := holdings[x][y]; controls[x][y] || h <= 0.5-nearTie || h <= 0.5+nearTie && exact(x, y) <= 0.5 {
			return
		}
		controls[x][y] = true
		work = append(work, [2]int{x, y})
	}
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			claim(x, y)
		}
	}
	for len(work) > 0 {
		x, z := work[len(work)-1][0], work[len(work)-1][1]
		work = work[:len(work)-1]
		if z == x {
			continue
		}
		for _, y := range owned[z] {
			holdings[x][y] += o.Share[z][y]
			claim(x, y)
		}
	}
	// Final holdings in the naive iteration's order: own shares, then
	// each controlled company's in index order.
	for x := 0; x < n; x++ {
		copy(holdings[x], o.Share[x])
		for z := 0; z < n; z++ {
			if z != x && controls[x][z] {
				for _, y := range owned[z] {
					holdings[x][y] += o.Share[z][y]
				}
			}
		}
	}
	return controls, holdings
}

// GateKind distinguishes circuit node types.
type GateKind int

// The circuit node kinds.
const (
	InputNode GateKind = iota
	AndGate
	OrGate
)

// Circuit is a (possibly cyclic) boolean circuit (Example 4.4). Node i
// has kind Kind[i]; gate inputs are listed in In[i]; InputVal[i] is the
// value of an input node.
type Circuit struct {
	N        int
	Kind     []GateKind
	In       [][]int
	InputVal []bool
}

// NewCircuit builds an all-false-input circuit with n nodes.
func NewCircuit(n int) *Circuit {
	return &Circuit{
		N:        n,
		Kind:     make([]GateKind, n),
		In:       make([][]int, n),
		InputVal: make([]bool, n),
	}
}

// Eval computes the minimal fixpoint of the circuit: every wire starts
// false (the default value of Example 4.4) and gates are re-evaluated
// until stable. Because values only flip false→true, the iteration is
// monotone and terminates.
func (c *Circuit) Eval() []bool {
	v := make([]bool, c.N)
	for i := 0; i < c.N; i++ {
		if c.Kind[i] == InputNode {
			v[i] = c.InputVal[i]
		}
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < c.N; i++ {
			var nv bool
			switch c.Kind[i] {
			case InputNode:
				continue
			case AndGate:
				nv = true
				for _, w := range c.In[i] {
					if !v[w] {
						nv = false
						break
					}
				}
				if len(c.In[i]) == 0 {
					nv = true // AND of the empty multiset is true
				}
			case OrGate:
				nv = false
				for _, w := range c.In[i] {
					if v[w] {
						nv = true
						break
					}
				}
			}
			if nv && !v[i] {
				v[i] = true
				changed = true
			}
		}
	}
	return v
}

// Party is an instance of Example 4.3: Requires[i] is how many attending
// acquaintances invitee i needs; Knows[i] lists whom i knows.
type Party struct {
	N        int
	Requires []int
	Knows    [][]int
}

// NewParty builds an instance with n invitees.
func NewParty(n int) *Party {
	return &Party{N: n, Requires: make([]int, n), Knows: make([][]int, n)}
}

// Attendance computes who comes: the least fixpoint of "x comes when at
// least Requires[x] of x's acquaintances come".
func (p *Party) Attendance() []bool {
	coming := make([]bool, p.N)
	for changed := true; changed; {
		changed = false
		for x := 0; x < p.N; x++ {
			if coming[x] {
				continue
			}
			n := 0
			for _, y := range p.Knows[x] {
				if coming[y] {
					n++
				}
			}
			if n >= p.Requires[x] {
				coming[x] = true
				changed = true
			}
		}
	}
	return coming
}
