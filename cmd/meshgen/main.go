// Command meshgen generates a uns3d.msh-style binary mesh file — the
// externally created input SDM imports — on the host file system,
// together with a sidecar layout description, and optionally a
// partitioning vector file.
//
// Usage:
//
//	meshgen [-nx 16] [-ny 0] [-nz 0] [-edgearrays 4] [-nodearrays 4]
//	        [-o uns3d.msh] [-partition 8]
//
// The layout sidecar (<output>.layout) holds the numbers a consumer
// needs to construct SDM import specs: edge count, node count, and
// array counts. The optional partitioning vector (<output>.part<N>) is
// the int32 node-to-rank assignment from the multilevel partitioner.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"os"

	"sdm/meshgen"
	"sdm/partitioner"
)

func main() {
	nx := flag.Int("nx", 16, "grid cells in x")
	ny := flag.Int("ny", 0, "grid cells in y (default nx)")
	nz := flag.Int("nz", 0, "grid cells in z (default nx)")
	edgeArrays := flag.Int("edgearrays", 4, "per-edge double arrays")
	nodeArrays := flag.Int("nodearrays", 4, "per-node double arrays")
	out := flag.String("o", "uns3d.msh", "output file")
	nparts := flag.Int("partition", 0, "also emit a partitioning vector for this many parts")
	flag.Parse()

	if *ny == 0 {
		*ny = *nx
	}
	if *nz == 0 {
		*nz = *nx
	}
	m, err := meshgen.GenerateTet(*nx, *ny, *nz)
	if err != nil {
		log.Fatal(err)
	}
	// The file is encoded straight into the output, one data array at
	// a time: at nx 128 the whole file would be 631 MB.
	msh := meshgen.Msh{Mesh: m, EdgeArrays: *edgeArrays, NodeArrays: *nodeArrays,
		EdgeData: m.EdgeData, NodeData: m.NodeData}
	layout := msh.Layout()
	if err := writeMsh(*out, msh); err != nil {
		log.Fatal(err)
	}
	sidecar := fmt.Sprintf("edges %d\nnodes %d\nedgearrays %d\nnodearrays %d\n",
		layout.NumEdges, layout.NumNodes, layout.EdgeArrays, layout.NodeArrays)
	if err := os.WriteFile(*out+".layout", []byte(sidecar), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %d nodes, %d edges, %.1f MB\n",
		*out, layout.NumNodes, layout.NumEdges, float64(layout.TotalSize())/1e6)

	if *nparts > 1 {
		g, err := partitioner.FromEdges(m.NumNodes(), m.Edge1, m.Edge2)
		if err != nil {
			log.Fatal(err)
		}
		vec, err := partitioner.Multilevel(g, *nparts, partitioner.Options{Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		pbuf := make([]byte, len(vec)*4)
		for i, p := range vec {
			binary.LittleEndian.PutUint32(pbuf[i*4:], uint32(p))
		}
		name := fmt.Sprintf("%s.part%d", *out, *nparts)
		if err := os.WriteFile(name, pbuf, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s: edge cut %d, balance %.3f\n",
			name, partitioner.EdgeCut(g, vec), partitioner.Balance(g, vec, *nparts))
	}
}

// writeMsh encodes msh into the host file name.
func writeMsh(name string, msh meshgen.Msh) error {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := msh.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
