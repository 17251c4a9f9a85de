#include "graph/io.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

#include "base/logging.hh"
#include "graph/builder.hh"

namespace minnow::graph
{

namespace
{

constexpr std::uint64_t kBinaryMagic = 0x4d494e4e4f575247ull;

/** RAII FILE handle. */
struct File
{
    File(const std::string &path, const char *mode)
        : f(std::fopen(path.c_str(), mode))
    {
        fatal_if(!f, "cannot open %s", path.c_str());
    }

    ~File()
    {
        if (f)
            std::fclose(f);
    }

    File(const File &) = delete;
    File &operator=(const File &) = delete;

    std::FILE *f;
};

} // anonymous namespace

CsrGraph
readDimacs(const std::string &path)
{
    File file(path, "r");
    char line[512];
    NodeId n = 0;
    std::uint64_t m = 0;
    bool sawHeader = false;
    GraphBuilder builder(0);
    while (std::fgets(line, sizeof(line), file.f)) {
        if (line[0] == 'c' || line[0] == '\n')
            continue;
        if (line[0] == 'p') {
            unsigned long long pn = 0, pm = 0;
            fatal_if(std::sscanf(line, "p sp %llu %llu", &pn, &pm) !=
                         2,
                     "bad DIMACS header in %s", path.c_str());
            fatal_if(pn >= kInvalidNode,
                     "DIMACS header in %s claims %llu nodes; at most %u"
                     " fit a NodeId",
                     path.c_str(), pn, kInvalidNode - 1);
            n = NodeId(pn);
            m = pm;
            builder = GraphBuilder(n);
            sawHeader = true;
            continue;
        }
        if (line[0] == 'a') {
            fatal_if(!sawHeader, "DIMACS arc before header in %s",
                     path.c_str());
            unsigned long long u = 0, v = 0, w = 1;
            fatal_if(std::sscanf(line, "a %llu %llu %llu", &u, &v,
                                 &w) < 2,
                     "bad DIMACS arc in %s", path.c_str());
            fatal_if(u == 0 || v == 0 || u > n || v > n,
                     "DIMACS node id out of range in %s",
                     path.c_str());
            // DIMACS is 1-based.
            builder.addEdge(NodeId(u - 1), NodeId(v - 1),
                            std::uint32_t(w));
        }
    }
    fatal_if(!sawHeader, "no DIMACS header in %s", path.c_str());
    if (builder.edgeCount() != m) {
        warn("DIMACS %s: header claims %llu arcs, file has %zu",
             path.c_str(), (unsigned long long)m,
             builder.edgeCount());
    }
    return builder.build(true);
}

void
writeDimacs(const CsrGraph &g, const std::string &path)
{
    File file(path, "w");
    std::fprintf(file.f, "c generated by minnow\n");
    std::fprintf(file.f, "p sp %u %llu\n", g.numNodes(),
                 (unsigned long long)g.numEdges());
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        for (EdgeId e = g.edgeBegin(v); e < g.edgeEnd(v); ++e) {
            std::fprintf(file.f, "a %u %u %u\n", v + 1,
                         g.edgeDst(e) + 1, g.edgeWeight(e));
        }
    }
}

CsrGraph
readEdgeList(const std::string &path, bool symmetrize)
{
    File file(path, "r");
    char line[512];
    std::vector<RawEdge> raw;
    std::map<std::uint64_t, NodeId> compact;
    auto idOf = [&](std::uint64_t ext) {
        auto [it, fresh] =
            compact.try_emplace(ext, NodeId(compact.size()));
        (void)fresh;
        return it->second;
    };
    while (std::fgets(line, sizeof(line), file.f)) {
        if (line[0] == '#' || line[0] == '%' || line[0] == '\n')
            continue;
        unsigned long long u = 0, v = 0, w = 1;
        int got = std::sscanf(line, "%llu %llu %llu", &u, &v, &w);
        if (got < 2)
            continue;
        raw.push_back({idOf(u), idOf(v), std::uint32_t(w)});
    }
    GraphBuilder builder(NodeId(compact.size()));
    for (const RawEdge &e : raw)
        builder.addEdge(e.src, e.dst, e.weight);
    if (symmetrize)
        builder.symmetrize().dedup();
    return builder.build(true);
}

void
writeBinary(const CsrGraph &g, const std::string &path)
{
    File file(path, "wb");
    std::uint64_t header[3] = {kBinaryMagic, g.numNodes(),
                               g.numEdges()};
    std::uint64_t weighted = g.weighted() ? 1 : 0;
    std::fwrite(header, sizeof(header), 1, file.f);
    std::fwrite(&weighted, sizeof(weighted), 1, file.f);
    std::vector<std::uint64_t> rowPtr(g.numNodes() + 1);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        rowPtr[v] = g.edgeBegin(v);
    rowPtr[g.numNodes()] = g.numEdges();
    std::fwrite(rowPtr.data(), sizeof(std::uint64_t), rowPtr.size(),
                file.f);
    std::vector<NodeId> dst(g.numEdges());
    std::vector<std::uint32_t> weight(g.weighted() ? g.numEdges()
                                                   : 0);
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        dst[e] = g.edgeDst(e);
        if (g.weighted())
            weight[e] = g.edgeWeight(e);
    }
    // An empty vector's data() may be null, which fwrite rejects.
    if (!dst.empty())
        std::fwrite(dst.data(), sizeof(NodeId), dst.size(), file.f);
    if (!weight.empty()) {
        std::fwrite(weight.data(), sizeof(std::uint32_t),
                    weight.size(), file.f);
    }
}

CsrGraph
readBinary(const std::string &path)
{
    File file(path, "rb");
    // magic, node count, edge count, weighted flag.
    std::uint64_t header[4] = {};
    fatal_if(std::fread(header, sizeof(header), 1, file.f) != 1,
             "truncated binary graph %s", path.c_str());
    fatal_if(header[0] != kBinaryMagic, "%s is not a minnow binary"
             " graph", path.c_str());
    const std::uint64_t n = header[1], m = header[2];
    const bool weighted = header[3] != 0;
    fatal_if(n >= kInvalidNode,
             "binary graph %s claims %llu nodes; at most %u fit a NodeId",
             path.c_str(), (unsigned long long)n, kInvalidNode - 1);

    // The header is untrusted: it must account for the file's exact
    // length before any array is sized from it.
    long bytes = -1;
    if (std::fseek(file.f, 0, SEEK_END) == 0)
        bytes = std::ftell(file.f);
    fatal_if(bytes < 0 || std::fseek(file.f, sizeof(header), SEEK_SET),
             "cannot measure binary graph %s", path.c_str());
    const std::uint64_t arrays = std::uint64_t(bytes) - sizeof(header);
    const std::uint64_t rowBytes = 8 * (n + 1);
    const std::uint64_t edgeBytes = weighted ? 8 : 4;
    fatal_if(arrays < rowBytes || (arrays - rowBytes) / edgeBytes != m ||
                 (arrays - rowBytes) % edgeBytes,
             "binary graph %s is %ld bytes, but its header claims %llu"
             " nodes and %llu%s edges",
             path.c_str(), bytes, (unsigned long long)n,
             (unsigned long long)m, weighted ? " weighted" : "");

    std::vector<std::uint64_t> rowPtr(n + 1);
    fatal_if(std::fread(rowPtr.data(), sizeof(std::uint64_t),
                        rowPtr.size(), file.f) != rowPtr.size(),
             "truncated binary graph %s", path.c_str());
    std::vector<NodeId> dst(m);
    fatal_if(m && std::fread(dst.data(), sizeof(NodeId), m, file.f) != m,
             "truncated binary graph %s", path.c_str());
    std::vector<std::uint32_t> weight;
    if (weighted && m) {
        weight.resize(m);
        fatal_if(std::fread(weight.data(), sizeof(std::uint32_t), m,
                            file.f) != m,
                 "truncated binary graph %s", path.c_str());
    }

    fatal_if(rowPtr[0] != 0, "binary graph %s: rowPtr[0] is %llu, not 0",
             path.c_str(), (unsigned long long)rowPtr[0]);
    auto down = std::is_sorted_until(rowPtr.begin(), rowPtr.end());
    fatal_if(down != rowPtr.end(),
             "binary graph %s: rowPtr decreases after node %zu",
             path.c_str(), std::size_t(down - rowPtr.begin() - 1));
    fatal_if(rowPtr[n] != m,
             "binary graph %s: rowPtr ends at %llu, not at its %llu"
             " edges",
             path.c_str(), (unsigned long long)rowPtr[n],
             (unsigned long long)m);
    auto bad = std::find_if(dst.begin(), dst.end(),
                            [n](NodeId d) { return d >= n; });
    fatal_if(bad != dst.end(),
             "binary graph %s: edge %zu points to node %u of %llu",
             path.c_str(), std::size_t(bad - dst.begin()), *bad,
             (unsigned long long)n);
    return CsrGraph(std::move(rowPtr), std::move(dst),
                    std::move(weight));
}

} // namespace minnow::graph
