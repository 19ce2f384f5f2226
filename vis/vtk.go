// Package vis adds the visualization support the paper lists as future
// work ("We plan to develop SDM further to support visualization
// applications"): it exports meshes and SDM-managed datasets to the
// legacy VTK unstructured-grid format, which ParaView and VisIt read
// directly. Checkpoint series export one file per timestep, pulling
// each dataset back through SDM's read path so the files reflect what
// was actually stored.
package vis

import (
	"bufio"
	"fmt"
	"io"

	"sdm/meshgen"
)

// vtkTetra is the VTK cell type id of a tetrahedron, the one cell this
// exporter emits.
const vtkTetra = 10

// Field is one named scalar array to attach to the grid.
type Field struct {
	Name string
	// Assoc selects whether values attach to points or cells.
	Assoc Assoc
	Data  []float64
}

// Assoc distinguishes point data from cell data.
type Assoc int

// Field associations.
const (
	PerNode Assoc = iota
	PerCell
)

// WriteTetMesh writes a tetrahedral mesh with optional fields as a
// legacy-format VTK unstructured grid.
func WriteTetMesh(w io.Writer, m *meshgen.Mesh, title string, fields ...Field) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, title); err != nil {
		return err
	}
	writePoints(bw, m)
	fmt.Fprintf(bw, "CELLS %d %d\n", len(m.Tets), len(m.Tets)*5)
	for _, t := range m.Tets {
		fmt.Fprintf(bw, "4 %d %d %d %d\n", t[0], t[1], t[2], t[3])
	}
	fmt.Fprintf(bw, "CELL_TYPES %d\n", len(m.Tets))
	for range m.Tets {
		fmt.Fprintln(bw, vtkTetra)
	}
	if err := writeFields(bw, m.NumNodes(), len(m.Tets), fields); err != nil {
		return err
	}
	return bw.Flush()
}

func writeHeader(w io.Writer, title string) error {
	if title == "" {
		title = "SDM export"
	}
	_, err := fmt.Fprintf(w, "# vtk DataFile Version 3.0\n%s\nASCII\nDATASET UNSTRUCTURED_GRID\n", title)
	return err
}

func writePoints(w io.Writer, m *meshgen.Mesh) {
	fmt.Fprintf(w, "POINTS %d double\n", m.NumNodes())
	for _, c := range m.Coords {
		fmt.Fprintf(w, "%g %g %g\n", c[0], c[1], c[2])
	}
}

func writeFields(w io.Writer, nPoints, nCells int, fields []Field) error {
	wrotePointHeader, wroteCellHeader := false, false
	// VTK requires all POINT_DATA arrays grouped, then CELL_DATA.
	for _, assoc := range []Assoc{PerNode, PerCell} {
		for _, f := range fields {
			if f.Assoc != assoc {
				continue
			}
			want := nPoints
			if assoc == PerCell {
				want = nCells
			}
			if len(f.Data) != want {
				return fmt.Errorf("vis: field %q has %d values, grid has %d", f.Name, len(f.Data), want)
			}
			if assoc == PerNode && !wrotePointHeader {
				fmt.Fprintf(w, "POINT_DATA %d\n", nPoints)
				wrotePointHeader = true
			}
			if assoc == PerCell && !wroteCellHeader {
				fmt.Fprintf(w, "CELL_DATA %d\n", nCells)
				wroteCellHeader = true
			}
			fmt.Fprintf(w, "SCALARS %s double 1\nLOOKUP_TABLE default\n", f.Name)
			for _, v := range f.Data {
				fmt.Fprintf(w, "%g\n", v)
			}
		}
	}
	return nil
}
