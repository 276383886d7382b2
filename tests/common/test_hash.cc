/**
 * @file
 * SHA-256 validation against the FIPS 180-4 / NIST CAVP published
 * vectors, plus the incremental-update and one-shot-reuse contracts,
 * and the SHA-NI kernel against the portable one. The result cache's
 * content addresses are only as trustworthy as this implementation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "common/random.hh"

namespace
{

using ff::Sha256;
namespace detail = ff::detail;

std::string
hexOf(const std::string &msg)
{
    return Sha256::hex(msg.data(), msg.size());
}

TEST(Sha256, EmptyMessage)
{
    EXPECT_EQ(hexOf(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc)
{
    EXPECT_EQ(hexOf("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    EXPECT_EQ(
        hexOf("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039"
        "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs)
{
    Sha256 h;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        h.update(chunk);
    EXPECT_EQ(h.hexDigest(),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary)
{
    // 64 bytes = exactly one block; the padding must spill into a
    // second block.
    EXPECT_EQ(hexOf(std::string(64, 'x')),
              Sha256::hex(std::string(64, 'x').data(), 64));
    Sha256 a;
    a.update(std::string(64, 'q'));
    Sha256 b;
    b.update(std::string(32, 'q'));
    b.update(std::string(32, 'q'));
    EXPECT_EQ(a.hexDigest(), b.hexDigest());
}

TEST(Sha256, ChunkingIsTransparent)
{
    const std::string msg =
        "the quick brown fox jumps over the lazy dog, twice over";
    Sha256 whole;
    whole.update(msg);
    Sha256 bytewise;
    for (const char c : msg)
        bytewise.update(&c, 1);
    EXPECT_EQ(whole.hexDigest(), bytewise.hexDigest());
}

TEST(Sha256, ChunkedUpdatesMatchOneShot)
{
    // Every length across the block boundaries, fed in chunks that
    // straddle the 64-byte buffer in every way, against one update.
    std::string msg;
    for (unsigned i = 0; i < 300; ++i)
        msg.push_back(static_cast<char>(i * 37 + 11));
    for (std::size_t len = 0; len <= msg.size(); ++len) {
        const std::string want = Sha256::hex(msg.data(), len);
        for (const std::size_t chunk : {1, 3, 63, 64, 65, 129}) {
            Sha256 h;
            for (std::size_t at = 0; at < len; at += chunk)
                h.update(msg.data() + at, std::min(chunk, len - at));
            EXPECT_EQ(h.hexDigest(), want)
                << "len " << len << " chunk " << chunk;
        }
    }
}

TEST(Sha256, Digest64IsTheLeadingBytesLittleEndian)
{
    Sha256 h;
    h.update("abc");
    // "abc" digests to ba7816bf 8f01cfea ...
    EXPECT_EQ(h.digest64(), 0xeacf018fbf1678baULL);
}

TEST(Sha256Kernels, ShaNiMatchesPortableOnRandomBlocks)
{
    if (!detail::sha256HasShaNi())
        GTEST_SKIP() << "this CPU has no SHA extensions";
    ff::Rng rng(0x5a17);
    std::vector<std::uint8_t> blocks(64 * 8);
    detail::Sha256State portable{};
    for (std::uint32_t &w : portable)
        w = static_cast<std::uint32_t>(rng.next());
    detail::Sha256State shani = portable;
    // 10k blocks in runs of 1..8, so the multi-block loop carries the
    // state across blocks as update() does.
    for (unsigned done = 0; done < 10000;) {
        const std::size_t n = 1 + rng.nextBelow(8);
        for (std::size_t i = 0; i < 64 * n; ++i)
            blocks[i] = static_cast<std::uint8_t>(rng.next());
        detail::sha256CompressPortable(portable, blocks.data(), n);
        detail::sha256CompressShaNi(shani, blocks.data(), n);
        ASSERT_EQ(shani, portable) << "after block " << done;
        done += static_cast<unsigned>(n);
    }
}

TEST(Sha256, DistinctMessagesDistinctDigests)
{
    EXPECT_NE(hexOf("abc"), hexOf("abd"));
    EXPECT_NE(hexOf(""), hexOf(std::string(1, '\0')));
}

TEST(Sha256DeathTest, DigestIsOneShot)
{
    Sha256 h;
    h.update("abc");
    (void)h.digest();
    EXPECT_DEATH((void)h.digest(), "one-shot");
    Sha256 g;
    (void)g.digest();
    EXPECT_DEATH(g.update("more"), "after digest");
}

} // namespace
