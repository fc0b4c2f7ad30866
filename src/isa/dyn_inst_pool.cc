#include "isa/dyn_inst_pool.hh"

namespace gals
{

DynInstPool::~DynInstPool()
{
    gals_assert(outstanding_ == 0, "DynInstPool destroyed with ",
                outstanding_, " instruction(s) still referenced");
#ifdef GALS_POOL_ASAN
    for (const auto &chunk : chunks_)
        ASAN_UNPOISON_MEMORY_REGION(chunk.get(), chunkBlocks * blockBytes_);
#endif
}

void
DynInstPool::grow(std::size_t bytes)
{
    if (blockBytes_ == 0) {
        // new[] storage is aligned for any fundamental type; rounding
        // the block size keeps every block in a chunk aligned the same.
        constexpr std::size_t align = alignof(std::max_align_t);
        blockBytes_ = (bytes + align - 1) / align * align;
    }
    chunks_.push_back(
        std::make_unique<std::byte[]>(chunkBlocks * blockBytes_));
    std::byte *base = chunks_.back().get();
    blocks_ += chunkBlocks;
    free_.reserve(blocks_);
    // Lowest address on top, so a fresh chunk is handed out in order.
    for (std::size_t i = chunkBlocks; i-- > 0;) {
        free_.push_back(base + i * blockBytes_);
        poison(base + i * blockBytes_);
    }
}

} // namespace gals
