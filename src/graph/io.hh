/**
 * @file
 * Graph file I/O: DIMACS shortest-path format (.gr, the format of
 * the USA-road inputs), SNAP-style whitespace edge lists (the
 * wiki/dblp/amazon inputs), and a fast binary CSR container for
 * caching generated graphs between runs.
 */

#ifndef MINNOW_GRAPH_IO_HH
#define MINNOW_GRAPH_IO_HH

#include <string>

#include "graph/csr.hh"

namespace minnow::graph
{

/**
 * Read a DIMACS .gr file ("p sp N M" header, "a u v w" arcs); fatal
 * if N is not below kInvalidNode.
 */
CsrGraph readDimacs(const std::string &path);

/** Write a weighted graph in DIMACS .gr format. */
void writeDimacs(const CsrGraph &g, const std::string &path);

/**
 * Read a SNAP-style edge list: '#' comments, "u v [w]" lines,
 * 0-based or arbitrary ids (compacted).
 * @param symmetrize Add reverse edges.
 */
CsrGraph readEdgeList(const std::string &path,
                      bool symmetrize = false);

/**
 * Binary CSR container: magic, node count, edge count and weighted
 * flag (u64 each), then rowPtr (u64), dst (u32) and, if weighted,
 * the weights (u32). readBinary trusts no field: the header must
 * account for the file's exact length before any array is sized
 * from it, and rowPtr must start at 0, never decrease and end at the
 * edge count, with every dst a node. Any other file is a fatal that
 * names it.
 */
void writeBinary(const CsrGraph &g, const std::string &path);
CsrGraph readBinary(const std::string &path);

} // namespace minnow::graph

#endif // MINNOW_GRAPH_IO_HH
