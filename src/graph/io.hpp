// Graph serialization: a plain edge-list text format and the DIMACS
// coloring format, so downstream users can run the library on their own
// instances and export results.
//
// Edge-list format: first line "n m", then m lines "u v" (0-based).
// DIMACS format:    "p edge n m" header, "e u v" lines (1-based), "c"
//                   comment lines ignored.
// Both readers throw precondition_error on malformed input, including a
// vertex count above INT32_MAX, an edge count outside [0, n*n] and an
// endpoint outside the vertex range, before narrowing or sizing anything.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/coloring.hpp"
#include "graph/graph.hpp"

namespace dvc {

void write_edge_list(std::ostream& os, const Graph& g);
Graph read_edge_list(std::istream& is);

void write_dimacs(std::ostream& os, const Graph& g);
Graph read_dimacs(std::istream& is);

/// One "v <vertex-id> <color>" line per vertex (1-based ids), the common
/// output convention for DIMACS coloring solvers.
void write_coloring(std::ostream& os, const Coloring& c);

}  // namespace dvc
