/**
 * @file
 * Self-contained SHA-256 for content addressing (the on-disk result
 * cache keys its entries by the digest of program + configuration).
 * Implemented locally so the simulator keeps zero external
 * dependencies; this is FIPS 180-4 SHA-256, validated against the
 * published test vectors in tests/common/test_hash.cc.
 *
 * The block compression has two kernels: a portable one, and one on
 * the x86 SHA extensions (SHA-NI) that runs several times faster. The
 * first hasher picks SHA-NI if the CPU has it and the portable kernel
 * otherwise; both produce the same state bit for bit, so every digest
 * is independent of the host.
 */

#ifndef FF_COMMON_HASH_HH
#define FF_COMMON_HASH_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace ff
{

namespace detail
{

/** SHA-256 chaining state: the working words a..h of FIPS 180-4. */
using Sha256State = std::array<std::uint32_t, 8>;

/** Compresses @p nblocks 64-byte blocks at @p blocks into @p state
 *  with portable C++; the only kernel off x86. */
void sha256CompressPortable(Sha256State &state,
                            const std::uint8_t *blocks,
                            std::size_t nblocks);

/** The same compression on the SHA extensions. Only valid where
 *  sha256HasShaNi() is true (it panics on hosts that are not x86). */
void sha256CompressShaNi(Sha256State &state, const std::uint8_t *blocks,
                         std::size_t nblocks);

/** True if this CPU executes the SHA-NI kernel. */
bool sha256HasShaNi();

} // namespace detail

/** Incremental SHA-256 hasher. */
class Sha256
{
  public:
    /** Fresh hasher in the FIPS 180-4 initial state. */
    Sha256();

    /** Absorbs @p n bytes at @p data. */
    void update(const void *data, std::size_t n);

    /** Absorbs the bytes of @p s. */
    void update(const std::string &s) { update(s.data(), s.size()); }

    /** Finalizes and returns the 32-byte digest. One-shot. */
    std::array<std::uint8_t, 32> digest();

    /** Finalizes and returns the digest as 64 lowercase hex chars. */
    std::string hexDigest();

    /** Finalizes and returns the first 8 digest bytes as a
     *  little-endian integer (the snapshot and trace identity hash). */
    std::uint64_t digest64();

    /** Convenience one-shot hex digest of a buffer. */
    static std::string hex(const void *data, std::size_t n);

  private:
    detail::Sha256State _h;
    std::array<std::uint8_t, 64> _block;
    std::uint64_t _totalBytes = 0;
    std::size_t _blockFill = 0;
    bool _finalized = false;
};

} // namespace ff

#endif // FF_COMMON_HASH_HH
