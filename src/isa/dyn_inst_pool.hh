/**
 * @file
 * Recycled storage for dynamic instructions.
 *
 * Fetch creates one DynInst per fetched instruction and drops it when
 * the instruction commits or is squashed, so a run allocates and frees
 * one DynInst per fetch. DynInstPool keeps released blocks on a LIFO
 * free list and hands them out again: once the pool has grown to the
 * machine's in-flight instruction count, an instruction's lifetime
 * costs no trip through malloc/free.
 *
 * DynInstPtr stays std::shared_ptr<DynInst>. make() builds it with
 * std::allocate_shared over a DynInstAllocator, so the control block
 * and the DynInst share one pooled block and every holder (channels,
 * ROB, issue queues, LSQ, the completion heap) is unchanged. A pooled
 * pointer and a std::make_shared one mix freely in the same holder.
 *
 * A pool belongs to one Processor and is not thread-safe; every
 * pointer it made must be dropped before it is destroyed (checked by
 * the destructor). Under AddressSanitizer, blocks on the free list are
 * poisoned, so touching an instruction after its last owner let go is
 * still reported.
 */

#ifndef ISA_DYN_INST_POOL_HH
#define ISA_DYN_INST_POOL_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "isa/dyn_inst.hh"
#include "sim/logging.hh"

#if defined(__SANITIZE_ADDRESS__)
#define GALS_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GALS_POOL_ASAN 1
#endif
#endif

#ifdef GALS_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace gals
{

/** Fixed-size blocks with a LIFO free list, grown in chunks. */
class DynInstPool
{
  public:
    DynInstPool() = default;
    ~DynInstPool();

    DynInstPool(const DynInstPool &) = delete;
    DynInstPool &operator=(const DynInstPool &) = delete;

    /** A default-constructed DynInst in pooled storage. */
    DynInstPtr make();

    /** One block of @p bytes; the first request fixes the block size. */
    void *
    allocate(std::size_t bytes)
    {
        if (free_.empty())
            grow(bytes);
        gals_assert(bytes <= blockBytes_, "DynInstPool block of ", bytes,
                    " bytes requested, pool serves ", blockBytes_);
        void *p = free_.back();
        free_.pop_back();
        unpoison(p);
        ++outstanding_;
        return p;
    }

    /** Return a block from allocate(). */
    void
    deallocate(void *p) noexcept
    {
        poison(p);
        free_.push_back(p); // capacity reserved for every block
        --outstanding_;
    }

    /** Blocks handed out and not yet returned. */
    std::size_t outstanding() const { return outstanding_; }
    /** Blocks the pool has carved so far (free + outstanding). */
    std::size_t blocks() const { return blocks_; }

  private:
    static constexpr std::size_t chunkBlocks = 64;

    void grow(std::size_t bytes);

    void
    poison([[maybe_unused]] void *p) const noexcept
    {
#ifdef GALS_POOL_ASAN
        ASAN_POISON_MEMORY_REGION(p, blockBytes_);
#endif
    }

    void
    unpoison([[maybe_unused]] void *p) const noexcept
    {
#ifdef GALS_POOL_ASAN
        ASAN_UNPOISON_MEMORY_REGION(p, blockBytes_);
#endif
    }

    std::size_t blockBytes_ = 0; ///< first request, rounded to alignment
    std::size_t blocks_ = 0;
    std::size_t outstanding_ = 0;
    std::vector<void *> free_;   ///< LIFO: the most recently freed first
    std::vector<std::unique_ptr<std::byte[]>> chunks_;
};

/** Stateful allocator over a DynInstPool, for std::allocate_shared. */
template <typename T>
class DynInstAllocator
{
  public:
    using value_type = T;

    explicit DynInstAllocator(DynInstPool &pool) noexcept : pool_(&pool) {}

    template <typename U>
    DynInstAllocator(const DynInstAllocator<U> &other) noexcept
        : pool_(other.pool_)
    {
    }

    T *
    allocate(std::size_t n)
    {
        static_assert(alignof(T) <= alignof(std::max_align_t));
        gals_assert(n == 1, "DynInstAllocator serves single objects");
        return static_cast<T *>(pool_->allocate(sizeof(T)));
    }

    void deallocate(T *p, std::size_t) noexcept { pool_->deallocate(p); }

    template <typename U>
    bool
    operator==(const DynInstAllocator<U> &other) const noexcept
    {
        return pool_ == other.pool_;
    }

  private:
    template <typename>
    friend class DynInstAllocator;

    DynInstPool *pool_;
};

inline DynInstPtr
DynInstPool::make()
{
    return std::allocate_shared<DynInst>(DynInstAllocator<DynInst>(*this));
}

} // namespace gals

#endif // ISA_DYN_INST_POOL_HH
