/**
 * @file
 * DRAM organization and physical-address <-> device-coordinate mapping.
 */
#ifndef QPRAC_DRAM_ADDRESS_H
#define QPRAC_DRAM_ADDRESS_H

#include <string>

#include "common/types.h"

namespace qprac::dram {

/** Geometry of the memory system (paper Table II defaults). */
struct Organization
{
    int channels = 1;
    int ranks = 2;
    int bankgroups = 8;
    int banks_per_group = 4;
    int rows_per_bank = 128 * 1024;
    int row_bytes = 8192;
    int line_bytes = 64;

    int banksPerRank() const { return bankgroups * banks_per_group; }
    /** Banks one channel owns (a DramDevice's flat-bank space). */
    int banksPerChannel() const { return ranks * banksPerRank(); }
    /** Banks across all channels (the global flat-bank space). */
    int totalBanks() const { return channels * banksPerChannel(); }
    int columnsPerRow() const { return row_bytes / line_bytes; }

    /** The same geometry restricted to one channel. */
    Organization perChannel() const
    {
        Organization one = *this;
        one.channels = 1;
        return one;
    }

    /** A small organization for fast unit tests. */
    static Organization tiny();
};

/** Decoded device coordinates for one cache-line address. */
struct DecodedAddr
{
    int channel = 0;
    int rank = 0;
    int bankgroup = 0;
    int bank = 0; ///< bank index within the bank group
    int row = 0;
    int column = 0; ///< cache-line-sized column index within the row

    bool operator==(const DecodedAddr&) const = default;
};

/** Physical bit layout used to interleave addresses across the devices. */
enum class MappingScheme
{
    /**
     * Row : Rank : Channel : BankGroup : Bank : Column : Offset
     * (MSB -> LSB). Consecutive lines stay in the same row (high
     * row-buffer locality); channel bits sit below row, so row-sized
     * regions stripe across channels.
     */
    RoRaBgBaCo,
    /**
     * Row : Column : Rank : Channel : BankGroup : Bank : Offset.
     * Consecutive lines stripe across banks (high bank-level
     * parallelism).
     */
    RoCoRaBgBa,
    /**
     * Row : Rank : BankGroup : Bank : Column : Channel : Offset.
     * Channel bits directly above the line offset: consecutive lines
     * alternate channels (fine-grained channel striping, the classic
     * multi-channel interleave).
     */
    RoRaBgBaCoCh,
};

/** Per-channel flat bank id in [0, org.banksPerChannel()). */
inline int
flatBankInChannel(const Organization& org, const DecodedAddr& dec)
{
    return dec.rank * org.banksPerRank() +
           dec.bankgroup * org.banks_per_group + dec.bank;
}

/**
 * Composes/decomposes physical addresses. Field widths are derived from
 * the Organization (all fields must be powers of two).
 */
class AddressMapper
{
  public:
    AddressMapper(const Organization& org,
                  MappingScheme scheme = MappingScheme::RoRaBgBaCo);

    DecodedAddr decode(Addr addr) const;
    Addr encode(const DecodedAddr& dec) const;

    /** Channel bits of @p addr only (routing fast path). */
    int channelOf(Addr addr) const { return extract(addr, f_channel_); }

    /**
     * Global flat bank id in [0, totalBanks) for (channel, rank, bg,
     * bank): channel-major over the per-channel flat-bank spaces. Cross-
     * channel aggregation only — a DramDevice and its controller index
     * banks with the per-channel id (flatBankInChannel).
     */
    int flatBank(const DecodedAddr& dec) const;

    /** Per-channel flat bank id in [0, banksPerChannel()). */
    int flatBankInChannel(const DecodedAddr& dec) const
    {
        return dram::flatBankInChannel(org_, dec);
    }

    /** Convenience: build an address for explicit coordinates. */
    Addr makeAddr(int channel, int rank, int bankgroup, int bank, int row,
                  int column) const;

    const Organization& organization() const { return org_; }
    MappingScheme scheme() const { return scheme_; }

  private:
    struct Field
    {
        int shift = 0;
        int bits = 0;
    };

    int extract(Addr addr, const Field& f) const;

    Organization org_;
    MappingScheme scheme_;
    Field f_channel_, f_rank_, f_bg_, f_bank_, f_row_, f_col_;
    int offset_bits_ = 0;
};

/** Human-readable scheme name ("row-major", ...). */
const char* mappingSchemeName(MappingScheme scheme);

/** Parse a scheme name; returns false on unknown names. */
bool parseMappingScheme(const std::string& name, MappingScheme* out);

} // namespace qprac::dram

#endif // QPRAC_DRAM_ADDRESS_H
