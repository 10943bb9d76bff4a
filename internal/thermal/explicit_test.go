package thermal

import (
	"fmt"
	"math"
)

// The explicit Euler / RK4 Solver is a test reference: no production path
// integrates with it, and it shares no code with the LU-based
// ImplicitSolver and FixedStepper it checks.

var _ Stepper = (*Solver)(nil)

// Method selects the transient integration scheme used by a Solver.
type Method int

const (
	// Euler is explicit forward Euler with automatic sub-stepping. Fast and
	// adequate for the smooth power profiles produced by the scheduler.
	Euler Method = iota
	// RK4 is classic fourth-order Runge-Kutta with automatic sub-stepping.
	// More accurate for rapidly changing power; roughly 4x the cost.
	RK4
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case Euler:
		return "euler"
	case RK4:
		return "rk4"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Solver integrates a Network's temperatures through time. It owns the
// current temperature state vector. A Solver is not safe for concurrent use.
type Solver struct {
	net    *Network
	method Method
	// temps holds the current node temperatures in degrees Celsius.
	temps []float64
	// maxStep caches the stability bound of the network.
	maxStep float64

	// scratch buffers for the integrators.
	k1, k2, k3, k4, tmp []float64
}

// NewSolver creates a solver for the network with every node initialized to
// the ambient temperature.
func NewSolver(net *Network, method Method) *Solver {
	nn := net.NumNodes()
	s := &Solver{
		net:     net,
		method:  method,
		temps:   make([]float64, nn),
		maxStep: net.MaxStableStep(),
		k1:      make([]float64, nn),
		k2:      make([]float64, nn),
		k3:      make([]float64, nn),
		k4:      make([]float64, nn),
		tmp:     make([]float64, nn),
	}
	for i := range s.temps {
		s.temps[i] = net.Ambient()
	}
	return s
}

// Reset sets every node temperature back to ambient.
func (s *Solver) Reset() {
	for i := range s.temps {
		s.temps[i] = s.net.Ambient()
	}
}

// SetTemperatures overwrites the state vector. The slice length must equal
// the node count.
func (s *Solver) SetTemperatures(t []float64) error {
	if len(t) != len(s.temps) {
		return fmt.Errorf("thermal: set temperatures: length %d != node count %d", len(t), len(s.temps))
	}
	copy(s.temps, t)
	return nil
}

// Temperatures returns the current node temperatures (degrees Celsius). The
// returned slice aliases internal state; callers must not modify it.
func (s *Solver) Temperatures() []float64 { return s.temps }

// Temperature returns the current temperature of node i.
func (s *Solver) Temperature(i int) float64 { return s.temps[i] }

// Step advances the network by dt seconds under constant power injection p
// (W per node). The step is internally subdivided to respect the explicit
// stability bound of the network.
func (s *Solver) Step(dt float64, p []float64) error {
	if len(p) != len(s.temps) {
		return fmt.Errorf("thermal: step: power vector length %d != node count %d", len(p), len(s.temps))
	}
	if dt <= 0 {
		return fmt.Errorf("thermal: step: dt must be positive, got %g", dt)
	}
	sub := int(math.Ceil(dt / s.maxStep))
	if sub < 1 {
		sub = 1
	}
	h := dt / float64(sub)
	for i := 0; i < sub; i++ {
		switch s.method {
		case RK4:
			s.stepRK4(h, p)
		default:
			s.stepEuler(h, p)
		}
	}
	return nil
}

func (s *Solver) stepEuler(h float64, p []float64) {
	s.net.derivative(s.k1, s.temps, p)
	for i := range s.temps {
		s.temps[i] += h * s.k1[i]
	}
}

func (s *Solver) stepRK4(h float64, p []float64) {
	t := s.temps
	s.net.derivative(s.k1, t, p)
	for i := range t {
		s.tmp[i] = t[i] + 0.5*h*s.k1[i]
	}
	s.net.derivative(s.k2, s.tmp, p)
	for i := range t {
		s.tmp[i] = t[i] + 0.5*h*s.k2[i]
	}
	s.net.derivative(s.k3, s.tmp, p)
	for i := range t {
		s.tmp[i] = t[i] + h*s.k3[i]
	}
	s.net.derivative(s.k4, s.tmp, p)
	for i := range t {
		t[i] += h / 6 * (s.k1[i] + 2*s.k2[i] + 2*s.k3[i] + s.k4[i])
	}
}

// derivative computes dT/dt for every node given temperatures t (degrees C)
// and injected power p (W), writing the result into dst.
func (n *Network) derivative(dst, t, p []float64) {
	for i := range n.nodes {
		q := p[i] - n.nodes[i].AmbientConductance*(t[i]-n.ambient)
		row := n.g[i]
		ti := t[i]
		for j, gij := range row {
			if gij != 0 {
				q -= gij * (ti - t[j])
			}
		}
		dst[i] = q / n.nodes[i].Capacitance
	}
}

// MaxStableStep returns a conservative upper bound on the forward-Euler step
// size (seconds) that keeps the explicit integration stable: for each node
// the step must be below 2*C_i/Gtot_i; we return half of the tightest bound
// as a safety margin.
func (n *Network) MaxStableStep() float64 {
	minStep := math.Inf(1)
	for i := range n.nodes {
		gtot := n.nodes[i].AmbientConductance
		for _, gij := range n.g[i] {
			gtot += gij
		}
		if gtot == 0 {
			continue
		}
		s := n.nodes[i].Capacitance / gtot // tau_i
		if s < minStep {
			minStep = s
		}
	}
	if math.IsInf(minStep, 1) {
		return 1
	}
	return minStep // tau itself is already < 2*tau stability bound with margin
}
