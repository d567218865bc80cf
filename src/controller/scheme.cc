#include "controller/scheme.hh"

#include <stdexcept>

namespace sdpcm {

SchemeConfig
SchemeConfig::din8F2()
{
    SchemeConfig c;
    c.name = "DIN";
    c.superDense = false;
    return c;
}

SchemeConfig
SchemeConfig::baselineVnc()
{
    SchemeConfig c;
    c.name = "baseline";
    return c;
}

SchemeConfig
SchemeConfig::lazyC(unsigned ecp_entries)
{
    SchemeConfig c;
    c.name = "LazyC";
    c.lazyCorrection = true;
    c.ecpEntries = ecp_entries;
    return c;
}

SchemeConfig
SchemeConfig::lazyCPreRead()
{
    SchemeConfig c = lazyC();
    c.name = "LazyC+PreRead";
    c.preRead = true;
    return c;
}

SchemeConfig
SchemeConfig::lazyCNm(const NmRatio& tag)
{
    SchemeConfig c = lazyC();
    c.name = "LazyC+(" + tag.toString() + ")";
    c.defaultTag = tag;
    return c;
}

SchemeConfig
SchemeConfig::lazyCPreReadNm(const NmRatio& tag)
{
    SchemeConfig c = lazyCPreRead();
    c.name = "LazyC+PreRead+(" + tag.toString() + ")";
    c.defaultTag = tag;
    return c;
}

SchemeConfig
SchemeConfig::nmOnly(const NmRatio& tag)
{
    SchemeConfig c;
    c.name = "(" + tag.toString() + ")";
    c.defaultTag = tag;
    return c;
}

SchemeConfig
SchemeConfig::fnwVnc()
{
    SchemeConfig c;
    c.name = "fnw";
    c.fnwEncoding = true;
    return c;
}

SchemeConfig
SchemeConfig::sdpcm(const NmRatio& tag)
{
    SchemeConfig c = lazyCPreReadNm(tag);
    c.name = "sdpcm";
    return c;
}

SchemeConfig
SchemeConfig::byName(const std::string& name, const NmRatio& ratio)
{
    if (name == "din")
        return din8F2();
    if (name == "baseline" || name == "vnc")
        return baselineVnc();
    if (name == "lazyc")
        return lazyC();
    if (name == "lazyc+preread")
        return lazyCPreRead();
    if (name == "nm")
        return nmOnly(ratio);
    if (name == "all" || name == "lazyc+preread+nm")
        return lazyCPreReadNm(ratio);
    if (name == "sdpcm")
        return sdpcm(ratio);
    if (name == "fnw")
        return fnwVnc();
    throw std::invalid_argument("unknown scheme '" + name +
                                "' (din, baseline, lazyc, lazyc+preread, "
                                "nm, all, sdpcm, fnw)");
}

} // namespace sdpcm
