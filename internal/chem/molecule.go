package chem

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Atomic numbers of the elements this reproduction needs (hydrocarbons).
const (
	ZHydrogen = 1
	ZCarbon   = 6
)

// Symbol returns the element symbol for atomic number z.
func Symbol(z int) string {
	switch z {
	case ZHydrogen:
		return "H"
	case ZCarbon:
		return "C"
	default:
		return fmt.Sprintf("Z%d", z)
	}
}

// Atom is a nucleus: atomic number and position (Bohr).
type Atom struct {
	Z   int
	Pos Vec3
}

// Molecule is an ordered list of atoms. Atom order matters: basis shells
// are laid out in atom order, and the paper's reordering scheme permutes
// shells (Sec. III-D).
type Molecule struct {
	Name  string
	Atoms []Atom
}

// NumAtoms returns the number of atoms.
func (m *Molecule) NumAtoms() int { return len(m.Atoms) }

// NumElectrons returns the total electron count of the neutral molecule.
func (m *Molecule) NumElectrons() int {
	n := 0
	for _, a := range m.Atoms {
		n += a.Z
	}
	return n
}

// Formula returns the Hill-convention molecular formula, e.g. "C96H24".
func (m *Molecule) Formula() string {
	counts := map[int]int{}
	for _, a := range m.Atoms {
		counts[a.Z]++
	}
	var b strings.Builder
	write := func(z int) {
		if c := counts[z]; c > 0 {
			b.WriteString(Symbol(z))
			if c > 1 {
				fmt.Fprintf(&b, "%d", c)
			}
			delete(counts, z)
		}
	}
	write(ZCarbon)
	write(ZHydrogen)
	rest := make([]int, 0, len(counts))
	for z := range counts {
		rest = append(rest, z)
	}
	sort.Ints(rest)
	for _, z := range rest {
		write(z)
	}
	return b.String()
}

// NuclearRepulsion returns the nuclear-nuclear repulsion energy in Hartree.
func (m *Molecule) NuclearRepulsion() float64 {
	var e float64
	for i := range m.Atoms {
		for j := i + 1; j < len(m.Atoms); j++ {
			r := m.Atoms[i].Pos.Dist(m.Atoms[j].Pos)
			e += float64(m.Atoms[i].Z) * float64(m.Atoms[j].Z) / r
		}
	}
	return e
}

// Translate shifts every atom by d (Bohr) and returns m.
func (m *Molecule) Translate(d Vec3) *Molecule {
	for i := range m.Atoms {
		m.Atoms[i].Pos = m.Atoms[i].Pos.Add(d)
	}
	return m
}

// BoundingBox returns the min and max corners of the axis-aligned box
// containing all atoms.
func (m *Molecule) BoundingBox() (min, max Vec3) {
	if len(m.Atoms) == 0 {
		return Vec3{}, Vec3{}
	}
	min, max = m.Atoms[0].Pos, m.Atoms[0].Pos
	for _, a := range m.Atoms[1:] {
		if a.Pos.X < min.X {
			min.X = a.Pos.X
		}
		if a.Pos.Y < min.Y {
			min.Y = a.Pos.Y
		}
		if a.Pos.Z < min.Z {
			min.Z = a.Pos.Z
		}
		if a.Pos.X > max.X {
			max.X = a.Pos.X
		}
		if a.Pos.Y > max.Y {
			max.Y = a.Pos.Y
		}
		if a.Pos.Z > max.Z {
			max.Z = a.Pos.Z
		}
	}
	return min, max
}

// MinInterAtomicDistance returns the smallest pairwise distance (Bohr); a
// geometry sanity check used by tests. Returns +Inf for <2 atoms.
func (m *Molecule) MinInterAtomicDistance() float64 {
	best := math.Inf(1)
	for i := range m.Atoms {
		for j := i + 1; j < len(m.Atoms); j++ {
			if d := m.Atoms[i].Pos.Dist(m.Atoms[j].Pos); d < best {
				best = d
			}
		}
	}
	return best
}
