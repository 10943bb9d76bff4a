// Package thermal implements a lumped-parameter (RC network) compact thermal
// model of a multicore die, in the style of HotSpot's block model.
//
// The chip is modeled as a network of thermal nodes. Each node i has a heat
// capacitance C_i (J/K) and is connected to other nodes and to the ambient
// through thermal conductances (W/K). Power dissipated in a node drives its
// temperature according to
//
//	C_i dT_i/dt = P_i - sum_j G_ij (T_i - T_j) - G_amb,i (T_i - T_amb)
//
// which is the standard electro-thermal duality: power <-> current,
// temperature <-> voltage, thermal resistance <-> electrical resistance.
//
// The package provides a generic Network type plus a QuadCoreFloorplan
// constructor that builds the 2x2-core + spreader + sink topology used by the
// rest of this repository to stand in for the Intel quad-core platform of the
// paper.
package thermal

import (
	"errors"
	"fmt"
	"math"
)

// Kelvin converts a temperature in degrees Celsius to Kelvin.
func Kelvin(celsius float64) float64 { return celsius + 273.15 }

// Celsius converts a temperature in Kelvin to degrees Celsius.
func Celsius(kelvin float64) float64 { return kelvin - 273.15 }

// Node is one thermal node of the RC network.
type Node struct {
	// Name identifies the node (e.g. "core0", "spreader").
	Name string
	// Capacitance is the heat capacity of the node in J/K. It must be
	// strictly positive.
	Capacitance float64
	// AmbientConductance is the thermal conductance from this node
	// directly to the ambient, in W/K. Zero means no direct ambient path.
	AmbientConductance float64
}

// Network is a thermal RC network. The zero value is not usable; construct
// one with NewNetwork and add nodes and conductances before solving.
type Network struct {
	nodes []Node
	// g[i][j] is the node-to-node conductance between nodes i and j (W/K),
	// symmetric, zero diagonal.
	g [][]float64
	// ambient temperature in degrees Celsius.
	ambient float64

	index map[string]int
}

// NewNetwork creates an empty network with the given ambient temperature in
// degrees Celsius.
func NewNetwork(ambientC float64) *Network {
	return &Network{ambient: ambientC, index: make(map[string]int)}
}

// Ambient returns the ambient temperature in degrees Celsius.
func (n *Network) Ambient() float64 { return n.ambient }

// SetAmbient changes the ambient temperature (degrees Celsius).
func (n *Network) SetAmbient(c float64) { n.ambient = c }

// NumNodes returns the number of thermal nodes in the network.
func (n *Network) NumNodes() int { return len(n.nodes) }

// AddNode appends a node and returns its index. It returns an error if the
// name is duplicated or the capacitance is not positive.
func (n *Network) AddNode(node Node) (int, error) {
	if node.Capacitance <= 0 {
		return 0, fmt.Errorf("thermal: node %q: capacitance must be positive, got %g", node.Name, node.Capacitance)
	}
	if node.AmbientConductance < 0 {
		return 0, fmt.Errorf("thermal: node %q: ambient conductance must be non-negative, got %g", node.Name, node.AmbientConductance)
	}
	if _, dup := n.index[node.Name]; dup {
		return 0, fmt.Errorf("thermal: duplicate node name %q", node.Name)
	}
	idx := len(n.nodes)
	n.nodes = append(n.nodes, node)
	n.index[node.Name] = idx
	for i := range n.g {
		n.g[i] = append(n.g[i], 0)
	}
	n.g = append(n.g, make([]float64, idx+1))
	return idx, nil
}

// MustAddNode is AddNode but panics on error; intended for static floorplan
// construction where the inputs are compile-time constants.
func (n *Network) MustAddNode(node Node) int {
	idx, err := n.AddNode(node)
	if err != nil {
		panic(err)
	}
	return idx
}

// NodeIndex returns the index of the node with the given name.
func (n *Network) NodeIndex(name string) (int, bool) {
	i, ok := n.index[name]
	return i, ok
}

// NodeName returns the name of node i.
func (n *Network) NodeName(i int) string { return n.nodes[i].Name }

// Connect sets the node-to-node conductance between nodes i and j to g W/K.
// The connection is symmetric. It returns an error for invalid indices,
// self-connection, or negative conductance.
func (n *Network) Connect(i, j int, g float64) error {
	if i < 0 || i >= len(n.nodes) || j < 0 || j >= len(n.nodes) {
		return fmt.Errorf("thermal: connect: node index out of range (%d, %d) with %d nodes", i, j, len(n.nodes))
	}
	if i == j {
		return errors.New("thermal: connect: cannot connect a node to itself")
	}
	if g < 0 {
		return fmt.Errorf("thermal: connect: conductance must be non-negative, got %g", g)
	}
	n.g[i][j] = g
	n.g[j][i] = g
	return nil
}

// MustConnect is Connect but panics on error.
func (n *Network) MustConnect(i, j int, g float64) {
	if err := n.Connect(i, j, g); err != nil {
		panic(err)
	}
}

// Conductance returns the node-to-node conductance between i and j.
func (n *Network) Conductance(i, j int) float64 { return n.g[i][j] }

// AmbientConductance returns node i's direct conductance to the ambient.
func (n *Network) AmbientConductance(i int) float64 { return n.nodes[i].AmbientConductance }

// SteadyState solves for the equilibrium temperatures (degrees Celsius) under
// constant power injection p. It solves the linear system
// (G + diag(Gamb)) T = P + Gamb*Tamb via Gaussian elimination with partial
// pivoting. It returns an error if the system is singular (e.g. a node with
// no path to ambient).
func (n *Network) SteadyState(p []float64) ([]float64, error) {
	nn := len(n.nodes)
	if len(p) != nn {
		return nil, fmt.Errorf("thermal: steady state: power vector length %d != node count %d", len(p), nn)
	}
	// Build augmented matrix [A | b].
	a := make([][]float64, nn)
	for i := 0; i < nn; i++ {
		a[i] = make([]float64, nn+1)
		diag := n.nodes[i].AmbientConductance
		for j := 0; j < nn; j++ {
			if i == j {
				continue
			}
			gij := n.g[i][j]
			diag += gij
			a[i][j] = -gij
		}
		a[i][i] = diag
		a[i][nn] = p[i] + n.nodes[i].AmbientConductance*n.ambient
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < nn; col++ {
		pivot := col
		for r := col + 1; r < nn; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-15 {
			return nil, errors.New("thermal: steady state: singular conductance matrix (node with no ambient path?)")
		}
		a[col], a[pivot] = a[pivot], a[col]
		for r := col + 1; r < nn; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c <= nn; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	t := make([]float64, nn)
	for i := nn - 1; i >= 0; i-- {
		sum := a[i][nn]
		for j := i + 1; j < nn; j++ {
			sum -= a[i][j] * t[j]
		}
		t[i] = sum / a[i][i]
	}
	return t, nil
}
