/* Sequential state machines of the serial codecs: LZ77, Gorilla, Chimp and
 * canonical Huffman decode.
 *
 * Each function mirrors the format documented in its Python module
 * (lz77.py, gorilla.py, chimp.py, huffman.py), which owns the vectorised
 * stages around it. Encoders emit (value, bit width) fields for the
 * vectorised pack_bits, or bytes into a caller-sized buffer. Decoders check
 * every read against the end of their input and return a negative ERR_*
 * code instead of reading or writing out of bounds.
 *
 * Build: gcc -O2 -shared -fPIC (see __init__.py).
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define ERR_TRUNCATED (-1)
#define ERR_CORRUPT (-2)
#define ERR_OFFSET (-3)
#define ERR_NOMEM (-4)

/* ---- MSB-first bit reader ------------------------------------------------ */

typedef struct {
    const uint8_t *buf;
    int64_t nbytes;
    int64_t pos; /* in bits */
} bitreader;

/* Read n <= 64 bits into *out; ERR_TRUNCATED if fewer than n remain. */
static inline int br_read(bitreader *r, int n, uint64_t *out)
{
    if (n == 0) {
        *out = 0;
        return 0;
    }
    if (r->pos + n > r->nbytes * 8)
        return ERR_TRUNCATED;
    int64_t byte = r->pos >> 3;
    int off = (int)(r->pos & 7);
    if (byte + 8 <= r->nbytes && off + n <= 64) {
        uint64_t w = 0;
        for (int k = 0; k < 8; k++)
            w = (w << 8) | r->buf[byte + k];
        *out = (w << off) >> (64 - n);
    } else {
        uint64_t v = 0;
        int need = n;
        int64_t pos = r->pos;
        while (need > 0) {
            int avail = 8 - (int)(pos & 7);
            int take = avail < need ? avail : need;
            uint64_t bits = (r->buf[pos >> 3] >> (avail - take)) & ((1u << take) - 1);
            v = (v << take) | bits;
            pos += take;
            need -= take;
        }
        *out = v;
    }
    r->pos += n;
    return 0;
}

#define READ(r, n, dst)                      \
    do {                                     \
        int rc_ = br_read((r), (n), &(dst)); \
        if (rc_ < 0)                         \
            return rc_;                      \
    } while (0)

static inline int bit_length(uint64_t x) { return x ? 64 - __builtin_clzll(x) : 0; }

static inline int trailing_zeros(uint64_t x, int width) { return x ? __builtin_ctzll(x) : width; }

/* ---- LZ77 (lz77.py) ------------------------------------------------------ */

#define LZ_MIN_MATCH 4
#define LZ_MAX_OFFSET 0xFFFF
#define LZ_HASH_BITS 16

/* Append the 255-continuation bytes of a nibble value v >= 15. */
static inline int put_ext(uint8_t *dst, int64_t *o, int64_t cap, int64_t v)
{
    v -= 15;
    while (v >= 255) {
        if (*o >= cap)
            return ERR_NOMEM;
        dst[(*o)++] = 255;
        v -= 255;
    }
    if (*o >= cap)
        return ERR_NOMEM;
    dst[(*o)++] = (uint8_t)v;
    return 0;
}

static int put_literals(uint8_t *dst, int64_t *o, int64_t cap, const uint8_t *src,
                        int64_t ll, int match_nibble)
{
    if (*o >= cap)
        return ERR_NOMEM;
    dst[(*o)++] = (uint8_t)(((ll < 15 ? ll : 15) << 4) | match_nibble);
    if (ll >= 15 && put_ext(dst, o, cap, ll) < 0)
        return ERR_NOMEM;
    if (cap - *o < ll)
        return ERR_NOMEM;
    memcpy(dst + *o, src, (size_t)ll);
    *o += ll;
    return 0;
}

/* Greedy LZ77 with skip acceleration. Matches are looked up exactly: the
 * candidate is the latest visited position whose 4-byte key equals the
 * current one, found by walking a hash chain (head per hash, prev per
 * position in a 64 KiB ring) until the offset leaves the window. Returns the
 * compressed size, or ERR_NOMEM if it would exceed cap. */
int64_t lz_compress(const uint8_t *src, int64_t n, uint8_t *dst, int64_t cap, int skip_trigger)
{
    if (n == 0)
        return 0;
    int64_t *head = malloc(sizeof(int64_t) << LZ_HASH_BITS);
    int64_t *prev = malloc(sizeof(int64_t) * (LZ_MAX_OFFSET + 1));
    int64_t rc = 0, o = 0, anchor = 0, i = 0;
    int64_t search = (int64_t)1 << skip_trigger;
    if (!head || !prev) {
        rc = ERR_NOMEM;
        goto done;
    }
    memset(head, 0xFF, sizeof(int64_t) << LZ_HASH_BITS); /* all -1 */
    while (i < n - LZ_MIN_MATCH) {
        uint32_t key;
        memcpy(&key, src + i, 4);
        uint32_t h = (key * 2654435761u) >> (32 - LZ_HASH_BITS);
        int64_t j = head[h];
        while (j >= 0 && i - j <= LZ_MAX_OFFSET && memcmp(src + j, src + i, 4) != 0)
            j = prev[j & LZ_MAX_OFFSET];
        prev[i & LZ_MAX_OFFSET] = head[h];
        head[h] = i;
        if (j >= 0 && i - j <= LZ_MAX_OFFSET) {
            int64_t l = LZ_MIN_MATCH, maxl = n - i;
            while (l + 8 <= maxl && memcmp(src + i + l, src + j + l, 8) == 0)
                l += 8;
            while (l < maxl && src[i + l] == src[j + l])
                l++;
            int64_t ml = l - LZ_MIN_MATCH, off = i - j;
            if (put_literals(dst, &o, cap, src + anchor, i - anchor, ml < 15 ? (int)ml : 15) < 0 ||
                cap - o < 2) {
                rc = ERR_NOMEM;
                goto done;
            }
            dst[o++] = (uint8_t)(off & 0xFF);
            dst[o++] = (uint8_t)(off >> 8);
            if (ml >= 15 && put_ext(dst, &o, cap, ml) < 0) {
                rc = ERR_NOMEM;
                goto done;
            }
            i += l;
            anchor = i;
            search = (int64_t)1 << skip_trigger;
        } else {
            i += search >> skip_trigger;
            search++;
        }
    }
    /* final literal-only sequence */
    if (put_literals(dst, &o, cap, src + anchor, n - anchor, 0) < 0)
        rc = ERR_NOMEM;
done:
    free(head);
    free(prev);
    return rc < 0 ? rc : o;
}

/* Add the 255-continuation bytes at *p to *v. */
static inline int get_ext(const uint8_t *src, int64_t n, int64_t *p, int64_t *v)
{
    for (;;) {
        if (*p >= n)
            return ERR_TRUNCATED;
        uint8_t b = src[(*p)++];
        *v += b;
        if (b < 255)
            return 0;
    }
}

/* One pass over an LZ77 stream. With dst == NULL it validates the stream
 * (no read past n, every offset within the output so far, a final
 * literal-only sequence) and returns the decompressed size; then, called
 * again with dst of that size, it writes the output. */
int64_t lz_decompress(const uint8_t *src, int64_t n, uint8_t *dst, int64_t size)
{
    int64_t p = 0, o = 0;
    while (p < n) {
        uint8_t token = src[p++];
        int64_t ll = token >> 4;
        if (ll == 15 && get_ext(src, n, &p, &ll) < 0)
            return ERR_TRUNCATED;
        if (ll > n - p)
            return ERR_TRUNCATED;
        if (dst) {
            if (ll > size - o)
                return ERR_CORRUPT;
            memcpy(dst + o, src + p, (size_t)ll);
        }
        p += ll;
        o += ll;
        if (p >= n) /* final literal-only sequence: its match nibble is 0 */
            return (token & 0xF) ? ERR_TRUNCATED : o;
        if (n - p < 2)
            return ERR_TRUNCATED;
        int64_t off = src[p] | ((int64_t)src[p + 1] << 8);
        p += 2;
        int64_t ml = (token & 0xF) + LZ_MIN_MATCH;
        if ((token & 0xF) == 15 && get_ext(src, n, &p, &ml) < 0)
            return ERR_TRUNCATED;
        if (off == 0 || off > o)
            return ERR_OFFSET;
        if (dst) {
            if (ml > size - o)
                return ERR_CORRUPT;
            uint8_t *d = dst + o;
            if (off >= ml)
                memcpy(d, d - off, (size_t)ml);
            else /* overlapping copy replicates the window */
                for (int64_t k = 0; k < ml; k++)
                    d[k] = d[k - off];
        }
        o += ml;
    }
    /* only the empty stream has no final literal-only sequence */
    return n == 0 ? 0 : ERR_TRUNCATED;
}

/* ---- Gorilla (gorilla.py) ------------------------------------------------ */

/* Control-bit walk over precomputed XORs and their leading (capped at 31)
 * and trailing zero counts. Writes at most 2n - 1 fields; returns their
 * count. */
int64_t gorilla_fields(const uint64_t *xor, const int64_t *lz, const int64_t *tz, int64_t n,
                       int width, uint64_t *vals, int64_t *nbits)
{
    int64_t k = 0, prev_lz = -1, prev_tz = -1;
    vals[k] = xor[0];
    nbits[k++] = width;
    for (int64_t i = 1; i < n; i++) {
        uint64_t x = xor[i];
        if (x == 0) {
            vals[k] = 0;
            nbits[k++] = 1;
            continue;
        }
        int64_t l = lz[i], t = tz[i];
        if (prev_lz >= 0 && l >= prev_lz && t >= prev_tz) {
            vals[k] = 2; /* 10: reuse the window */
            nbits[k++] = 2;
            vals[k] = x >> prev_tz;
            nbits[k++] = width - prev_lz - prev_tz;
        } else {
            int64_t mlen = width - l - t;
            /* 11 | lz:5 | mlen:6 (64 stored as 0) */
            vals[k] = (uint64_t)(((3 << 5 | l) << 6) | (mlen & 63));
            nbits[k++] = 2 + 5 + 6;
            vals[k] = x >> t;
            nbits[k++] = mlen;
            prev_lz = l;
            prev_tz = t;
        }
    }
    return k;
}

int gorilla_decode(const uint8_t *buf, int64_t nbytes, int width, int64_t count, uint64_t *out)
{
    bitreader r = {buf, nbytes, 0};
    uint64_t prev, bit, x, lz, mlen;
    int prev_lz = 0, prev_tz = 0;
    READ(&r, width, prev);
    out[0] = prev;
    for (int64_t i = 1; i < count; i++) {
        READ(&r, 1, bit);
        if (bit == 0) {
            out[i] = prev;
            continue;
        }
        READ(&r, 1, bit);
        if (bit == 0) { /* reuse the previous window */
            READ(&r, width - prev_lz - prev_tz, x);
            x <<= prev_tz;
        } else {
            READ(&r, 5, lz);
            READ(&r, 6, mlen);
            if (mlen == 0)
                mlen = 64;
            int tz = width - (int)lz - (int)mlen;
            if (tz < 0)
                return ERR_CORRUPT;
            READ(&r, (int)mlen, x);
            x <<= tz;
            prev_lz = (int)lz;
            prev_tz = tz;
        }
        prev ^= x;
        out[i] = prev;
    }
    return 0;
}

/* ---- Chimp128 (chimp.py) ------------------------------------------------- */

#define CHIMP_PREV 128
#define CHIMP_PREV_LOG 7
#define CHIMP_KEY_BITS 14
#define CHIMP_THRESHOLD (6 + CHIMP_PREV_LOG)

static const int LEAD_ROUND[8] = {0, 8, 12, 16, 18, 20, 22, 24};

/* 3-bit code of the largest LEAD_ROUND entry <= lz. */
static inline int round_lead(int lz)
{
    int code = 0;
    for (int i = 1; i < 8; i++)
        if (lz >= LEAD_ROUND[i])
            code = i;
    return code;
}

/* Window/index walk. Writes at most 2n - 1 fields; returns their count. */
int64_t chimp_fields(const uint64_t *w, int64_t n, int width, uint64_t *vals, int64_t *nbits)
{
    const uint64_t key_mask = (1u << CHIMP_KEY_BITS) - 1;
    int64_t *indices = malloc(sizeof(int64_t) << CHIMP_KEY_BITS);
    uint64_t stored[CHIMP_PREV] = {0};
    int64_t k = 0;
    int stored_lz = -1;
    if (!indices)
        return ERR_NOMEM;
    for (int64_t s = 0; s < (1 << CHIMP_KEY_BITS); s++)
        indices[s] = INT64_MIN / 2;
    vals[k] = w[0];
    nbits[k++] = width;
    indices[w[0] & key_mask] = 0;
    stored[0] = w[0];
    for (int64_t i = 1; i < n; i++) {
        uint64_t v = w[i], x;
        uint64_t key = v & key_mask;
        int64_t cand_idx = indices[key];
        int tz;
        if (i - cand_idx < CHIMP_PREV) {
            x = v ^ stored[cand_idx % CHIMP_PREV];
            tz = trailing_zeros(x, width);
        } else {
            cand_idx = i - 1;
            x = v ^ stored[cand_idx % CHIMP_PREV];
            tz = 0;
        }
        if (x == 0) { /* 00 | index:7 */
            vals[k] = (uint64_t)(cand_idx % CHIMP_PREV);
            nbits[k++] = 2 + CHIMP_PREV_LOG;
            stored_lz = -1;
        } else if (tz > CHIMP_THRESHOLD) { /* 01 | index:7 | lead:3 | center_len:6 | center */
            int code = round_lead(width - bit_length(x));
            int clen = width - LEAD_ROUND[code] - tz;
            uint64_t head = ((uint64_t)(1 << CHIMP_PREV_LOG | (cand_idx % CHIMP_PREV)) << 3) | code;
            vals[k] = (head << 6) | (clen & 63);
            nbits[k++] = 2 + CHIMP_PREV_LOG + 3 + 6;
            vals[k] = x >> tz;
            nbits[k++] = clen;
            stored_lz = -1;
        } else {
            x = v ^ stored[(i - 1) % CHIMP_PREV];
            if (x == 0) {
                vals[k] = (uint64_t)((i - 1) % CHIMP_PREV);
                nbits[k++] = 2 + CHIMP_PREV_LOG;
                stored_lz = -1;
            } else {
                int code = round_lead(width - bit_length(x));
                int lz = LEAD_ROUND[code];
                if (lz == stored_lz) { /* 10 | bits */
                    vals[k] = 2;
                    nbits[k++] = 2;
                } else { /* 11 | lead:3 | bits */
                    vals[k] = (uint64_t)(3 << 3 | code);
                    nbits[k++] = 2 + 3;
                    stored_lz = lz;
                }
                vals[k] = x;
                nbits[k++] = width - lz;
            }
        }
        stored[i % CHIMP_PREV] = v;
        indices[key] = i;
    }
    free(indices);
    return k;
}

int chimp_decode(const uint8_t *buf, int64_t nbytes, int width, int64_t count, uint64_t *out)
{
    bitreader r = {buf, nbytes, 0};
    uint64_t stored[CHIMP_PREV] = {0};
    uint64_t first, flag, idx, code, clen, x, v;
    int stored_lz = -1;
    READ(&r, width, first);
    out[0] = stored[0] = first;
    for (int64_t i = 1; i < count; i++) {
        uint64_t last = stored[(i - 1) % CHIMP_PREV];
        READ(&r, 2, flag);
        if (flag == 0) {
            READ(&r, CHIMP_PREV_LOG, idx);
            v = stored[idx];
            stored_lz = -1;
        } else if (flag == 1) {
            READ(&r, CHIMP_PREV_LOG, idx);
            READ(&r, 3, code);
            READ(&r, 6, clen);
            if (clen == 0)
                clen = 64;
            int tz = width - LEAD_ROUND[code] - (int)clen;
            if (tz < 0)
                return ERR_CORRUPT;
            READ(&r, (int)clen, x);
            v = stored[idx] ^ (x << tz);
            stored_lz = -1;
        } else {
            if (flag == 3) {
                READ(&r, 3, code);
                stored_lz = LEAD_ROUND[code];
            } else if (stored_lz < 0) { /* 10 needs a stored leading-zero count */
                return ERR_CORRUPT;
            }
            READ(&r, width - stored_lz, x);
            v = last ^ x;
        }
        out[i] = stored[i % CHIMP_PREV] = v;
    }
    return 0;
}

/* ---- canonical Huffman decode (huffman.py) ------------------------------- */

/* Decode n symbols starting at bit pos. For each code length L in 1..64,
 * codes first_code[L] .. first_code[L] + counts[L] - 1 map to
 * syms[first_idx[L] + (code - first_code[L])]. Returns the bit position
 * after the last symbol. */
int64_t huffman_decode(const uint8_t *buf, int64_t nbytes, int64_t pos, const uint64_t *first_code,
                       const int64_t *first_idx, const int64_t *counts, const int64_t *syms,
                       int64_t n, int64_t *out)
{
    const int64_t nbits = nbytes * 8;
    for (int64_t i = 0; i < n; i++) {
        uint64_t code = 0;
        int len = 1;
        for (;; len++) {
            if (len > 64)
                return ERR_CORRUPT;
            if (pos >= nbits)
                return ERR_TRUNCATED;
            code = (code << 1) | ((buf[pos >> 3] >> (7 - (pos & 7))) & 1);
            pos++;
            if (code >= first_code[len] && code - first_code[len] < (uint64_t)counts[len])
                break;
        }
        out[i] = syms[first_idx[len] + (int64_t)(code - first_code[len])];
    }
    return pos;
}
