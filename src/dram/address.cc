#include "dram/address.h"

#include "common/log.h"

namespace qprac::dram {

namespace {

int
log2Exact(int v)
{
    QP_ASSERT(v > 0 && (v & (v - 1)) == 0, "value must be a power of two");
    int bits = 0;
    while ((1 << bits) < v)
        ++bits;
    return bits;
}

} // namespace

Organization
Organization::tiny()
{
    Organization org;
    org.channels = 1;
    org.ranks = 1;
    org.bankgroups = 2;
    org.banks_per_group = 2;
    org.rows_per_bank = 256;
    org.row_bytes = 1024;
    org.line_bytes = 64;
    return org;
}

AddressMapper::AddressMapper(const Organization& org, MappingScheme scheme)
    : org_(org), scheme_(scheme)
{
    offset_bits_ = log2Exact(org.line_bytes);
    const int col_bits = log2Exact(org.columnsPerRow());
    const int bank_bits = log2Exact(org.banks_per_group);
    const int bg_bits = log2Exact(org.bankgroups);
    const int rank_bits = log2Exact(org.ranks);
    const int ch_bits = log2Exact(org.channels);
    const int row_bits = log2Exact(org.rows_per_bank);

    int shift = offset_bits_;
    auto place = [&shift](Field& f, int bits) {
        f.shift = shift;
        f.bits = bits;
        shift += bits;
    };

    switch (scheme_) {
      case MappingScheme::RoRaBgBaCo:
        place(f_col_, col_bits);
        place(f_bank_, bank_bits);
        place(f_bg_, bg_bits);
        place(f_channel_, ch_bits);
        place(f_rank_, rank_bits);
        place(f_row_, row_bits);
        break;
      case MappingScheme::RoCoRaBgBa:
        place(f_bank_, bank_bits);
        place(f_bg_, bg_bits);
        place(f_channel_, ch_bits);
        place(f_rank_, rank_bits);
        place(f_col_, col_bits);
        place(f_row_, row_bits);
        break;
      case MappingScheme::RoRaBgBaCoCh:
        place(f_channel_, ch_bits);
        place(f_col_, col_bits);
        place(f_bank_, bank_bits);
        place(f_bg_, bg_bits);
        place(f_rank_, rank_bits);
        place(f_row_, row_bits);
        break;
    }
}

int
AddressMapper::extract(Addr addr, const Field& f) const
{
    if (f.bits == 0)
        return 0;
    return static_cast<int>((addr >> f.shift) & ((Addr{1} << f.bits) - 1));
}

DecodedAddr
AddressMapper::decode(Addr addr) const
{
    DecodedAddr d;
    d.channel = extract(addr, f_channel_);
    d.rank = extract(addr, f_rank_);
    d.bankgroup = extract(addr, f_bg_);
    d.bank = extract(addr, f_bank_);
    d.row = extract(addr, f_row_);
    d.column = extract(addr, f_col_);
    return d;
}

Addr
AddressMapper::encode(const DecodedAddr& dec) const
{
    Addr a = 0;
    a |= static_cast<Addr>(dec.channel) << f_channel_.shift;
    a |= static_cast<Addr>(dec.rank) << f_rank_.shift;
    a |= static_cast<Addr>(dec.bankgroup) << f_bg_.shift;
    a |= static_cast<Addr>(dec.bank) << f_bank_.shift;
    a |= static_cast<Addr>(dec.row) << f_row_.shift;
    a |= static_cast<Addr>(dec.column) << f_col_.shift;
    return a;
}

int
AddressMapper::flatBank(const DecodedAddr& dec) const
{
    return dec.channel * org_.banksPerChannel() +
           dram::flatBankInChannel(org_, dec);
}

const char*
mappingSchemeName(MappingScheme scheme)
{
    switch (scheme) {
      case MappingScheme::RoRaBgBaCo:
        return "row-major";
      case MappingScheme::RoCoRaBgBa:
        return "bank-striped";
      case MappingScheme::RoRaBgBaCoCh:
        return "channel-striped";
    }
    return "?";
}

bool
parseMappingScheme(const std::string& name, MappingScheme* out)
{
    if (name == "row-major" || name == "rorabgbaco")
        *out = MappingScheme::RoRaBgBaCo;
    else if (name == "bank-striped" || name == "rocorabgba")
        *out = MappingScheme::RoCoRaBgBa;
    else if (name == "channel-striped" || name == "rorabgbacoch")
        *out = MappingScheme::RoRaBgBaCoCh;
    else
        return false;
    return true;
}

Addr
AddressMapper::makeAddr(int channel, int rank, int bankgroup, int bank,
                        int row, int column) const
{
    DecodedAddr d;
    d.channel = channel;
    d.rank = rank;
    d.bankgroup = bankgroup;
    d.bank = bank;
    d.row = row;
    d.column = column;
    return encode(d);
}

} // namespace qprac::dram
