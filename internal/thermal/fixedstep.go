package thermal

import "fmt"

// Stepper is the common interface of the transient integrators: the
// reference Solver (explicit Euler / RK4), the ImplicitSolver and the
// constant-dt FixedStepper all satisfy it. A Stepper owns the current node
// temperature state.
type Stepper interface {
	// Step advances the network by dt seconds under constant power p.
	Step(dt float64, p []float64) error
	// Temperatures returns the current node temperatures (aliases internal
	// state; callers must not modify it).
	Temperatures() []float64
	// Temperature returns node i's temperature.
	Temperature(i int) float64
	// SetTemperatures overwrites the state vector.
	SetTemperatures(t []float64) error
	// Reset sets every node back to ambient.
	Reset()
}

// Compile-time interface checks for every integrator.
var (
	_ Stepper = (*Solver)(nil)
	_ Stepper = (*ImplicitSolver)(nil)
	_ Stepper = (*FixedStepper)(nil)
)

// FixedStepper integrates a Network with backward Euler at one fixed step
// size, with the whole linear update precomputed at construction. For a
// constant dt the implicit update
//
//	(C/dt + G) T_{n+1} = (C/dt) T_n + P + Gamb*Tamb
//
// is a constant linear map, so instead of an LU solve per step it can be
// collapsed into
//
//	T_{n+1} = A*T_n + B*P + c
//
// with A = M^-1 * diag(C/dt), B = M^-1 and c = M^-1 * (Gamb*Tamb), where
// M = C/dt + G. The constructor factors M once (the same LU the
// ImplicitSolver caches) and back-solves n unit vectors to materialize A and
// B column by column into flat row-major backing; Step is then two dense
// matvecs and performs no allocation. The arithmetic is a fixed sequence of
// float64 operations, so repeated runs from the same initial state are
// bit-identical.
//
// FixedStepper trades O(n^2) memory and an O(n^3) one-time setup for the
// cheapest possible per-step cost; it matches the ImplicitSolver at the same
// dt to rounding error. It is not safe for concurrent use.
type FixedStepper struct {
	net *Network
	dt  float64
	n   int
	// ab interleaves the rows of A and B: row i occupies
	// ab[2*n*i : 2*n*(i+1)], the first n entries being A's row (applied to
	// the temperature vector) and the next n being B's row (applied to the
	// power vector), so one step streams through the matrix memory linearly.
	ab []float64
	// c is the constant ambient-injection vector.
	c []float64
	// temps is the state; next is the step scratch.
	temps, next []float64
}

// NewFixedStepper factors the system matrix and materializes the
// precomputed constant-dt update A, B and c for the network. It returns an
// error for a non-positive dt or a singular system matrix.
func NewFixedStepper(net *Network, dt float64) (*FixedStepper, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("thermal: fixed stepper: dt must be positive, got %g", dt)
	}
	n := net.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("thermal: fixed stepper: network has no nodes")
	}
	f, err := factorize(n, systemMatrix(net, dt))
	if err != nil {
		return nil, err
	}
	s := &FixedStepper{
		net:   net,
		dt:    dt,
		n:     n,
		ab:    make([]float64, 2*n*n),
		c:     make([]float64, n),
		temps: make([]float64, n),
		next:  make([]float64, n),
	}
	// Column j of B is M^-1 e_j; column j of A is (C_j/dt) * that column.
	e := make([]float64, n)
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		f.solve(col, e)
		e[j] = 0
		cj := net.nodes[j].Capacitance / dt
		for i := 0; i < n; i++ {
			s.ab[2*n*i+j] = cj * col[i] // A
			s.ab[2*n*i+n+j] = col[i]    // B
		}
	}
	// c = M^-1 * (Gamb_i * Tamb).
	for i := 0; i < n; i++ {
		e[i] = net.nodes[i].AmbientConductance * net.Ambient()
	}
	f.solve(s.c, e)
	s.Reset()
	return s, nil
}

// Reset sets every node back to ambient.
func (s *FixedStepper) Reset() {
	for i := range s.temps {
		s.temps[i] = s.net.Ambient()
	}
}

// Temperatures returns the current node temperatures (aliases internal
// state; callers must not modify it).
func (s *FixedStepper) Temperatures() []float64 { return s.temps }

// Temperature returns node i's temperature.
func (s *FixedStepper) Temperature(i int) float64 { return s.temps[i] }

// SetTemperatures overwrites the state vector.
func (s *FixedStepper) SetTemperatures(t []float64) error {
	if len(t) != len(s.temps) {
		return fmt.Errorf("thermal: set temperatures: length %d != node count %d", len(t), len(s.temps))
	}
	copy(s.temps, t)
	return nil
}

// Step advances the network by the fixed step under constant power injection
// p. dt must equal the step size the update was precomputed for; callers
// needing a varying step should use the ImplicitSolver instead. Step
// performs no allocation.
func (s *FixedStepper) Step(dt float64, p []float64) error {
	if dt != s.dt {
		return fmt.Errorf("thermal: fixed stepper: got dt %g, precomputed for %g", dt, s.dt)
	}
	n := s.n
	if len(p) != n {
		return fmt.Errorf("thermal: fixed stepper: power vector length %d != node count %d", len(p), n)
	}
	if n == 6 {
		// The paper's quad-core chip (4 cores + spreader + sink) is the
		// dominant configuration; a fully unrolled kernel with the same
		// accumulation order as the generic loop below is bit-identical and
		// roughly halves the per-step cost. The platform injects power only
		// at the cores, so on every platform tick the spreader and sink
		// entries are zero and the kernel that drops them runs.
		if pp := (*[6]float64)(p); pp[4] == 0 && pp[5] == 0 {
			s.step6Cores(pp)
		} else {
			s.step6(pp)
		}
		return nil
	}
	// Reslice to the common length once so the compiler drops the bounds
	// checks inside the matvec loops.
	t, next := s.temps[:n], s.next[:n]
	p = p[:n]
	for i := 0; i < n; i++ {
		row := s.ab[2*n*i : 2*n*i+2*n]
		a, b := row[:n], row[n:2*n]
		// Four independent accumulator chains (A*T and B*p each split over
		// even/odd indices) so the products overlap in the pipeline instead
		// of serializing on one floating-point add chain.
		var sa0, sa1, sb0, sb1 float64
		j := 0
		for ; j+1 < n; j += 2 {
			sa0 += a[j] * t[j]
			sa1 += a[j+1] * t[j+1]
			sb0 += b[j] * p[j]
			sb1 += b[j+1] * p[j+1]
		}
		if j < n {
			sa0 += a[j] * t[j]
			sb0 += b[j] * p[j]
		}
		next[i] = s.c[i] + ((sa0 + sa1) + (sb0 + sb1))
	}
	// Copy element-wise rather than swapping the slice headers: a header
	// store into a heap struct goes through the GC write barrier, which
	// profiles hotter than this short float copy.
	for i := 0; i < n; i++ {
		t[i] = next[i]
	}
	return nil
}

// row6 computes one row of the 6-node update: the fused [A|B] row applied to
// the temperature and power vectors plus the constant term, using the same
// even/odd accumulator split as the generic loop so the result is
// bit-identical to it.
func row6(r *[12]float64, t, p *[6]float64, c float64) float64 {
	sa0 := r[0]*t[0] + r[2]*t[2] + r[4]*t[4]
	sa1 := r[1]*t[1] + r[3]*t[3] + r[5]*t[5]
	sb0 := r[6]*p[0] + r[8]*p[2] + r[10]*p[4]
	sb1 := r[7]*p[1] + r[9]*p[3] + r[11]*p[5]
	return c + ((sa0 + sa1) + (sb0 + sb1))
}

// step6 is the unrolled quad-core (6-node) step.
func (s *FixedStepper) step6(p *[6]float64) {
	t := (*[6]float64)(s.temps)
	c := (*[6]float64)(s.c)
	ab := s.ab
	n0 := row6((*[12]float64)(ab[0:12]), t, p, c[0])
	n1 := row6((*[12]float64)(ab[12:24]), t, p, c[1])
	n2 := row6((*[12]float64)(ab[24:36]), t, p, c[2])
	n3 := row6((*[12]float64)(ab[36:48]), t, p, c[3])
	n4 := row6((*[12]float64)(ab[48:60]), t, p, c[4])
	n5 := row6((*[12]float64)(ab[60:72]), t, p, c[5])
	t[0], t[1], t[2], t[3], t[4], t[5] = n0, n1, n2, n3, n4, n5
}

// step6Cores is step6 for a power vector whose spreader and sink entries
// (p[4] and p[5]) are zero. It drops their products r[10]*p[4] and
// r[11]*p[5], which are ±0, and keeps every other operation in step6's
// order. Adding ±0 leaves a float64 unchanged unless both addends are zeros
// of opposite sign, so a row can differ from step6's only in the sign of a
// zero result. On the platform no row is zero: the ambient term c[i] and the
// core powers are positive. So the two kernels are bit-identical there.
func (s *FixedStepper) step6Cores(p *[6]float64) {
	t := (*[6]float64)(s.temps)
	c := (*[6]float64)(s.c)
	ab := (*[72]float64)(s.ab)
	t0, t1, t2, t3, t4, t5 := t[0], t[1], t[2], t[3], t[4], t[5]
	p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
	// row is inlined at each constant i below, so the six rows compile to
	// straight-line code on values held in registers.
	row := func(i int) float64 {
		r := (*[12]float64)(ab[12*i:])
		sa0 := r[0]*t0 + r[2]*t2 + r[4]*t4
		sa1 := r[1]*t1 + r[3]*t3 + r[5]*t5
		sb0 := r[6]*p0 + r[8]*p2
		sb1 := r[7]*p1 + r[9]*p3
		return c[i] + ((sa0 + sa1) + (sb0 + sb1))
	}
	t[0], t[1], t[2], t[3], t[4], t[5] = row(0), row(1), row(2), row(3), row(4), row(5)
}
