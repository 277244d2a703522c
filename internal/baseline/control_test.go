package baseline_test

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/gen"
)

// sweepCompanyControl is the naive iteration CompanyControl replaced,
// kept as its oracle: every round recomputes all N² holdings, each an
// N-term sum, until no claim is added.
func sweepCompanyControl(o *baseline.Ownership) (controls [][]bool, holdings [][]float64) {
	controls = make([][]bool, o.N)
	for i := range controls {
		controls[i] = make([]bool, o.N)
	}
	holdings = make([][]float64, o.N)
	for i := range holdings {
		holdings[i] = make([]float64, o.N)
	}
	for changed := true; changed; {
		changed = false
		for x := 0; x < o.N; x++ {
			for y := 0; y < o.N; y++ {
				sum := o.Share[x][y]
				for z := 0; z < o.N; z++ {
					if z != x && controls[x][z] {
						sum += o.Share[z][y]
					}
				}
				holdings[x][y] = sum
				if sum > 0.5 && !controls[x][y] {
					controls[x][y] = true
					changed = true
				}
			}
		}
	}
	return controls, holdings
}

// TestCompanyControlMatchesSweep: the worklist solver returns the naive
// iteration's control matrix and holdings, bit for bit, on generated
// share networks from 8 to 256 companies, cyclic and acyclic.
func TestCompanyControlMatchesSweep(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64, 128, 256} {
		for _, cyclic := range []bool{false, true} {
			seeds := 4
			if n >= 128 {
				seeds = 1
			}
			for seed := int64(1); seed <= int64(seeds); seed++ {
				name := fmt.Sprintf("n=%d/cyclic=%v/seed=%d", n, cyclic, seed)
				o := gen.Ownership(n, 3, cyclic, seed+int64(n))
				controls, holdings := baseline.CompanyControl(o)
				wantC, wantH := sweepCompanyControl(o)
				claims := 0
				for x := 0; x < n; x++ {
					for y := 0; y < n; y++ {
						if controls[x][y] != wantC[x][y] || holdings[x][y] != wantH[x][y] {
							t.Fatalf("%s: (%d, %d) controls %v holdings %v, sweep %v %v",
								name, x, y, controls[x][y], holdings[x][y], wantC[x][y], wantH[x][y])
						}
						if controls[x][y] {
							claims++
						}
					}
				}
				if claims < n/4 {
					t.Fatalf("%s: only %d control claims; the network exercises little", name, claims)
				}
			}
		}
	}
}

// TestCompanyControlTies: sums that land on one half exactly in one
// addition order and just above it in another are settled by the naive
// iteration's order: 0.17 + 0.28 + 0.05 exceeds one half in floating
// point, 0.17 + 0.05 + 0.28 does not.
func TestCompanyControlTies(t *testing.T) {
	for _, shares := range [][3]float64{{0.17, 0.05, 0.28}, {0.17, 0.28, 0.05}, {0.28, 0.05, 0.17}, {0.28, 0.17, 0.05}} {
		o := baseline.NewOwnership(4)
		// 0 holds shares[0] of 3 directly and controls 1 and 2, which
		// hold the rest.
		o.Share[0][1], o.Share[0][2] = 0.6, 0.6
		o.Share[0][3], o.Share[1][3], o.Share[2][3] = shares[0], shares[1], shares[2]
		controls, holdings := baseline.CompanyControl(o)
		wantC, wantH := sweepCompanyControl(o)
		if controls[0][3] != wantC[0][3] || holdings[0][3] != wantH[0][3] {
			t.Fatalf("shares %v: controls %v holdings %v, sweep %v %v", shares, controls[0][3], holdings[0][3], wantC[0][3], wantH[0][3])
		}
	}
}
