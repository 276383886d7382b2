#include "common/hash.hh"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/logging.hh"

namespace ff
{

namespace
{

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline std::uint32_t
rotr(std::uint32_t v, unsigned n)
{
    return (v >> n) | (v << (32 - n));
}

} // namespace

namespace detail
{

void
sha256CompressPortable(Sha256State &state, const std::uint8_t *blocks,
                       std::size_t nblocks)
{
    for (; nblocks > 0; --nblocks, blocks += 64) {
        std::uint32_t w[64];
        for (unsigned i = 0; i < 16; ++i) {
            w[i] = static_cast<std::uint32_t>(blocks[4 * i]) << 24 |
                   static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16 |
                   static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8 |
                   static_cast<std::uint32_t>(blocks[4 * i + 3]);
        }
        for (unsigned i = 16; i < 64; ++i) {
            const std::uint32_t s0 = rotr(w[i - 15], 7) ^
                                     rotr(w[i - 15], 18) ^
                                     (w[i - 15] >> 3);
            const std::uint32_t s1 = rotr(w[i - 2], 17) ^
                                     rotr(w[i - 2], 19) ^
                                     (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2];
        std::uint32_t d = state[3], e = state[4], f = state[5];
        std::uint32_t g = state[6], h = state[7];
        for (unsigned i = 0; i < 64; ++i) {
            const std::uint32_t s1 =
                rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            const std::uint32_t ch = (e & f) ^ (~e & g);
            const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
            const std::uint32_t s0 =
                rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t t2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + t1;
            d = c;
            c = b;
            b = a;
            a = t1 + t2;
        }
        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

#if defined(__x86_64__)

namespace
{

// The SHA-NI kernel keeps the state as two vectors, ABEF and CDGH, and
// runs four rounds per message vector: sha256rnds2 does two rounds,
// its second operand pair is the upper half of the same W+K vector.
// Only this file's SHA-NI functions carry the target attribute, so
// the rest of the build keeps the baseline instruction set.
#define FF_SHA_NI_TARGET __attribute__((target("sha,sse4.1,ssse3")))

/** Four rounds with message words @p w (W[4g..4g+3]). */
FF_SHA_NI_TARGET inline void
shaNiRounds(__m128i &abef, __m128i &cdgh, __m128i w, unsigned g)
{
    const __m128i wk = _mm_add_epi32(
        w, _mm_loadu_si128(
               reinterpret_cast<const __m128i *>(&kK[4 * g])));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    abef = _mm_sha256rnds2_epu32(abef, cdgh,
                                 _mm_shuffle_epi32(wk, 0x0e));
}

/** W[t..t+3] from W[t-16..t-13] (@p w0) to W[t-4..t-1] (@p w3). */
FF_SHA_NI_TARGET inline __m128i
shaNiSchedule(__m128i w0, __m128i w1, __m128i w2, __m128i w3)
{
    const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                    _mm_alignr_epi8(w3, w2, 4));
    return _mm_sha256msg2_epu32(t, w3);
}

FF_SHA_NI_TARGET void
shaNiCompress(Sha256State &state, const std::uint8_t *blocks,
              std::size_t nblocks)
{
    // Big-endian message words: byte-reverse each 32-bit lane.
    const __m128i bswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

    const __m128i dcba = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(&state[0]));
    const __m128i hgfe = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(&state[4]));
    const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
    const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for (; nblocks > 0; --nblocks, blocks += 64) {
        const __m128i abef0 = abef;
        const __m128i cdgh0 = cdgh;
        const auto *in = reinterpret_cast<const __m128i *>(blocks);
        __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(in), bswap);
        __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), bswap);
        __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), bswap);
        __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), bswap);
        shaNiRounds(abef, cdgh, w0, 0);
        shaNiRounds(abef, cdgh, w1, 1);
        shaNiRounds(abef, cdgh, w2, 2);
        shaNiRounds(abef, cdgh, w3, 3);
        for (unsigned g = 4; g < 16; g += 4) {
            w0 = shaNiSchedule(w0, w1, w2, w3);
            shaNiRounds(abef, cdgh, w0, g);
            w1 = shaNiSchedule(w1, w2, w3, w0);
            shaNiRounds(abef, cdgh, w1, g + 1);
            w2 = shaNiSchedule(w2, w3, w0, w1);
            shaNiRounds(abef, cdgh, w2, g + 2);
            w3 = shaNiSchedule(w3, w0, w1, w2);
            shaNiRounds(abef, cdgh, w3, g + 3);
        }
        abef = _mm_add_epi32(abef, abef0);
        cdgh = _mm_add_epi32(cdgh, cdgh0);
    }

    // ABEF/CDGH back to a..h order.
    const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(&state[0]),
                     _mm_blend_epi16(feba, dchg, 0xf0));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(&state[4]),
                     _mm_alignr_epi8(dchg, feba, 8));
}

#undef FF_SHA_NI_TARGET

} // namespace

void
sha256CompressShaNi(Sha256State &state, const std::uint8_t *blocks,
                    std::size_t nblocks)
{
    shaNiCompress(state, blocks, nblocks);
}

bool
sha256HasShaNi()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") &&
           __builtin_cpu_supports("sse4.1") &&
           __builtin_cpu_supports("ssse3");
}

#else // !__x86_64__

void
sha256CompressShaNi(Sha256State &, const std::uint8_t *, std::size_t)
{
    ff_panic("SHA-NI kernel called on a host that is not x86-64");
}

bool
sha256HasShaNi()
{
    return false;
}

#endif

} // namespace detail

namespace
{

/** The kernel for this CPU, chosen on first use. */
void
compress(detail::Sha256State &state, const std::uint8_t *blocks,
         std::size_t nblocks)
{
    using Kernel = void (*)(detail::Sha256State &, const std::uint8_t *,
                            std::size_t);
    static const Kernel kernel = detail::sha256HasShaNi()
                                     ? detail::sha256CompressShaNi
                                     : detail::sha256CompressPortable;
    kernel(state, blocks, nblocks);
}

} // namespace

Sha256::Sha256()
    : _h{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
         0x9b05688c, 0x1f83d9ab, 0x5be0cd19}
{
    _block.fill(0);
}

void
Sha256::update(const void *data, std::size_t n)
{
    ff_panic_if(_finalized, "Sha256 update after digest");
    if (n == 0)
        return;
    const auto *p = static_cast<const std::uint8_t *>(data);
    _totalBytes += n;
    if (_blockFill > 0) {
        const std::size_t chunk = std::min(n, 64 - _blockFill);
        std::memcpy(_block.data() + _blockFill, p, chunk);
        _blockFill += chunk;
        p += chunk;
        n -= chunk;
        if (_blockFill < 64)
            return;
        compress(_h, _block.data(), 1);
        _blockFill = 0;
    }
    // Whole blocks straight from the input; the tail waits in _block.
    const std::size_t whole = n / 64;
    if (whole > 0)
        compress(_h, p, whole);
    _blockFill = n % 64;
    if (_blockFill > 0)
        std::memcpy(_block.data(), p + whole * 64, _blockFill);
}

std::array<std::uint8_t, 32>
Sha256::digest()
{
    ff_panic_if(_finalized, "Sha256 digest is one-shot");
    _finalized = true;

    const std::uint64_t bits = _totalBytes * 8;
    _block[_blockFill++] = 0x80;
    if (_blockFill > 56) {
        std::memset(_block.data() + _blockFill, 0, 64 - _blockFill);
        compress(_h, _block.data(), 1);
        _blockFill = 0;
    }
    std::memset(_block.data() + _blockFill, 0, 56 - _blockFill);
    for (unsigned i = 0; i < 8; ++i)
        _block[56 + i] =
            static_cast<std::uint8_t>(bits >> (56 - 8 * i));
    compress(_h, _block.data(), 1);

    std::array<std::uint8_t, 32> out;
    for (unsigned i = 0; i < 8; ++i) {
        out[4 * i] = static_cast<std::uint8_t>(_h[i] >> 24);
        out[4 * i + 1] = static_cast<std::uint8_t>(_h[i] >> 16);
        out[4 * i + 2] = static_cast<std::uint8_t>(_h[i] >> 8);
        out[4 * i + 3] = static_cast<std::uint8_t>(_h[i]);
    }
    return out;
}

std::string
Sha256::hexDigest()
{
    static const char kHex[] = "0123456789abcdef";
    const std::array<std::uint8_t, 32> d = digest();
    std::string s;
    s.reserve(64);
    for (const std::uint8_t b : d) {
        s.push_back(kHex[b >> 4]);
        s.push_back(kHex[b & 0xf]);
    }
    return s;
}

std::uint64_t
Sha256::digest64()
{
    const std::array<std::uint8_t, 32> d = digest();
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(d[i]) << (8 * i);
    return v;
}

std::string
Sha256::hex(const void *data, std::size_t n)
{
    Sha256 h;
    h.update(data, n);
    return h.hexDigest();
}

} // namespace ff
