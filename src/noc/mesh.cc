#include "noc/mesh.hh"

#include <cstdlib>

#include "sim/logging.hh"

namespace jord::noc {

Mesh::Mesh(const sim::MachineConfig &cfg) : cfg_(cfg)
{
    tilesPerSocket_ = cfg.meshCols * cfg.meshRows;
    if (tilesPerSocket_ * cfg.numSockets != cfg.numCores) {
        sim::fatal("mesh %ux%u x %u sockets does not cover %u cores",
                   cfg.meshCols, cfg.meshRows, cfg.numSockets,
                   cfg.numCores);
    }
    tiles_.reserve(cfg.numCores);
    for (unsigned t = 0; t < cfg.numCores; ++t) {
        unsigned local = t % tilesPerSocket_;
        tiles_.push_back(Tile{local % cfg.meshCols, local / cfg.meshCols,
                              t / tilesPerSocket_});
    }
    for (MsgKind kind : {MsgKind::Control, MsgKind::Data})
        serialize_[static_cast<unsigned>(kind)] = flits(kind) - 1;
}

Coord
Mesh::coordOf(unsigned tile) const
{
    return Coord{tiles_[tile].col, tiles_[tile].row};
}

unsigned
Mesh::hops(unsigned tile_a, unsigned tile_b) const
{
    Coord a = coordOf(tile_a);
    Coord b = coordOf(tile_b);
    return static_cast<unsigned>(
        std::abs(static_cast<int>(a.col) - static_cast<int>(b.col)) +
        std::abs(static_cast<int>(a.row) - static_cast<int>(b.row)));
}

unsigned
Mesh::flits(MsgKind kind) const
{
    if (kind == MsgKind::Control)
        return 1;
    return 1 + (sim::kCacheBlockBytes + cfg_.linkBytes - 1) /
                   cfg_.linkBytes;
}

double
Mesh::avgLatencyFrom(unsigned src, MsgKind kind) const
{
    double total = 0.0;
    for (unsigned t = 0; t < numTiles(); ++t)
        total += static_cast<double>(latency(src, t, kind));
    return total / static_cast<double>(numTiles());
}

unsigned
Mesh::homeSlice(sim::Addr block_addr, unsigned from_tile) const
{
    // Mix the block index so consecutive blocks spread across slices.
    sim::Addr block = block_addr / sim::kCacheBlockBytes;
    block ^= block >> 17;
    block *= 0xff51afd7ed558ccdull;
    block ^= block >> 33;
    unsigned socket = tiles_[from_tile].socket;
    return socket * tilesPerSocket_ +
           static_cast<unsigned>(block % tilesPerSocket_);
}

} // namespace jord::noc
