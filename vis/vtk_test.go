package vis

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"sdm/meshgen"
)

func testMesh(t *testing.T) *meshgen.Mesh {
	t.Helper()
	m, err := meshgen.GenerateTet(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWriteTetMeshStructure(t *testing.T) {
	m := testMesh(t)
	var buf bytes.Buffer
	err := WriteTetMesh(&buf, m, "unit test",
		Field{Name: "density", Assoc: PerNode, Data: m.NodeData(0)})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# vtk DataFile Version 3.0",
		"unit test",
		"DATASET UNSTRUCTURED_GRID",
		fmt.Sprintf("POINTS %d double", m.NumNodes()),
		fmt.Sprintf("CELLS %d %d", len(m.Tets), len(m.Tets)*5),
		fmt.Sprintf("CELL_TYPES %d", len(m.Tets)),
		fmt.Sprintf("POINT_DATA %d", m.NumNodes()),
		"SCALARS density double 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Every tet line starts with the vertex count 4; all cell types 10.
	lines := strings.Split(out, "\n")
	inCells := false
	for _, l := range lines {
		if strings.HasPrefix(l, "CELLS") {
			inCells = true
			continue
		}
		if strings.HasPrefix(l, "CELL_TYPES") {
			break
		}
		if inCells && l != "" && !strings.HasPrefix(l, "4 ") {
			t.Fatalf("cell line %q does not start with 4", l)
		}
	}
}

func TestFieldSizeValidation(t *testing.T) {
	m := testMesh(t)
	var buf bytes.Buffer
	err := WriteTetMesh(&buf, m, "x", Field{Name: "bad", Assoc: PerNode, Data: []float64{1}})
	if err == nil {
		t.Fatal("short field accepted")
	}
	err = WriteTetMesh(&buf, m, "x", Field{Name: "bad", Assoc: PerCell, Data: []float64{1}})
	if err == nil {
		t.Fatal("short cell field accepted")
	}
}

func TestMixedFieldsGrouped(t *testing.T) {
	m := testMesh(t)
	var buf bytes.Buffer
	err := WriteTetMesh(&buf, m, "grouped",
		Field{Name: "cellv", Assoc: PerCell, Data: make([]float64, len(m.Tets))},
		Field{Name: "nodev", Assoc: PerNode, Data: make([]float64, m.NumNodes())},
		Field{Name: "nodev2", Assoc: PerNode, Data: make([]float64, m.NumNodes())},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// POINT_DATA must appear exactly once and before CELL_DATA.
	if strings.Count(out, "POINT_DATA") != 1 || strings.Count(out, "CELL_DATA") != 1 {
		t.Fatal("data section headers duplicated")
	}
	if strings.Index(out, "POINT_DATA") > strings.Index(out, "CELL_DATA") {
		t.Fatal("point data must precede cell data")
	}
}
